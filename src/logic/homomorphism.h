// Homomorphism search: the workhorse behind query evaluation, chase trigger
// enumeration, CQ containment, and the universality checks in tests.
//
// A homomorphism maps non-constant terms (variables, labeled nulls) to
// terms, is the identity on constants, and must send every atom of the
// source onto a fact of the target instance. The search is a backtracking
// join (CompiledJoin): atoms are processed most-bound-first and candidate
// facts come from the target's column postings.
//
// Order contract. Enumeration (CompiledJoin::ForEach, ForEachHomomorphism,
// FindHomomorphism) yields matches in the search order: at each level the
// unused atom with the most bound positions, ties broken by the smaller
// candidate estimate and then by atom order, its candidates in ascending
// row order. Callers that fire triggers in that order (the generic chase,
// the countermodel) depend on it: their trigger order, null numbering and
// restricted-chase activeness follow from it, so the estimate counts whole
// posting lists even when a delta range narrows the candidates. Existence
// (CompiledJoin::Exists, GoalMatcher) is order-free: it estimates each atom
// by its candidates inside its range only, so a delta check starts from
// the delta.
#ifndef RBDA_LOGIC_HOMOMORPHISM_H_
#define RBDA_LOGIC_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "data/instance.h"

namespace rbda {

/// An atom is structurally a fact whose arguments may be variables.
using Atom = Fact;

using Substitution = std::unordered_map<Term, Term, TermHash>;

/// Applies `sub` to `t`: mapped terms are rewritten, others kept.
Term ApplyToTerm(const Substitution& sub, Term t);

/// Applies `sub` to every argument of `atom`.
Atom ApplyToAtom(const Substitution& sub, const Atom& atom);

/// Applies `sub` to every atom.
std::vector<Atom> ApplyToAtoms(const Substitution& sub,
                               const std::vector<Atom>& atoms);

/// A conjunction compiled once for repeated homomorphism search.
///
/// Non-constant terms become dense slots in first-occurrence order (atom by
/// atom, position by position); CompiledTgd takes a multi-atom body's slots
/// from its join. A search unifies candidate rows straight into a
/// caller-owned slot array and undoes its bindings from a trail; per-slot
/// occurrence lists keep each atom's bound-position count current. Nothing
/// is hashed or allocated per candidate row.
///
/// With `delta` non-null a search visits exactly the homomorphisms that map
/// at least one atom onto a fact appended since `delta` was taken (requires
/// target.MarkValid(*delta)), each once, by pivot partitioning: pivot atom i
/// maps into the delta, atoms before i into the pre-delta prefix, atoms
/// after i anywhere. Postings are walked only inside an atom's range.
///
/// `seeded` lists slots the caller bound before the search, with their
/// values already in `slots`; every other slot is bound by the search. The
/// join keeps scratch state: one thread uses a join at a time, and a
/// callback must not start another search on the same join or grow the
/// target.
class CompiledJoin {
 public:
  explicit CompiledJoin(std::span<const Atom> atoms);

  uint32_t num_slots() const {
    return static_cast<uint32_t>(slot_plans_.size());
  }
  /// The term slot `s` stands for.
  Term slot_term(uint32_t s) const { return slot_plans_[s].term; }

  /// Calls `fn(slots)` once per homomorphism into `target`, in search order
  /// (see the order contract above), with every slot bound. `fn` returns
  /// true to continue. Returns the number of homomorphisms visited.
  template <typename Fn>
  size_t ForEach(const Instance& target, const Instance::DeltaMark* delta,
                 Term* slots, Fn&& fn, std::span<const uint32_t> seeded = {}) {
    using F = std::remove_reference_t<Fn>;
    return Run(target, delta, slots, seeded, /*existence=*/false,
               [](void* f, const Term* s) { return (*static_cast<F*>(f))(s); },
               &fn);
  }

  /// True iff a homomorphism into `target` exists (touching the delta when
  /// `delta` is non-null). Order-free; on true, `slots` holds the match
  /// found.
  bool Exists(const Instance& target, const Instance::DeltaMark* delta,
              Term* slots, std::span<const uint32_t> seeded = {}) {
    return Run(target, delta, slots, seeded, /*existence=*/true, nullptr,
               nullptr) > 0;
  }

 private:
  using Callback = bool (*)(void* context, const Term* slots);
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Half-open range of row ids an atom may match.
  struct Range {
    uint32_t lo = 0;
    uint32_t hi = UINT32_MAX;
  };
  struct AtomPlan {
    RelationId relation = 0;
    uint32_t first_arg = 0;  // into args_
    uint32_t arity = 0;
    int constants = 0;  // constant positions
    // Scratch for one search.
    FactRange rows;
    Range range;
    uint32_t delta_begin = 0;
    int bound = 0;  // bound positions, constants included
    bool used = false;
  };
  // One atom position: a constant (slot == kNoSlot) or a slot.
  struct Arg {
    uint32_t slot;
    Term constant;
  };
  struct SlotPlan {
    Term term;
    // The atoms it occurs in, one entry per position:
    // occurrences_[first_occurrence .. end_occurrence).
    uint32_t first_occurrence = 0;
    uint32_t end_occurrence = 0;
    bool bound = false;  // scratch
  };

  size_t Run(const Instance& target, const Instance::DeltaMark* delta,
             Term* slots, std::span<const uint32_t> seeded, bool existence,
             Callback callback, void* context);
  bool Search(size_t remaining);
  // Candidates for `atom` under the current bindings: the smallest posting
  // list over its bound positions (*postings, with *probed set) or, when
  // none is bound, all its rows. Counted inside its range in existence
  // mode only.
  size_t Estimate(const AtomPlan& atom, std::span<const uint32_t>* postings,
                  bool* probed) const;
  // Marks `slot` bound or unbound and updates its atoms' bound counts.
  void SetBound(uint32_t slot, bool bound);
  // Binds a free slot, on the trail.
  void Bind(uint32_t slot, Term value);
  // Unbinds the trail's slots back to `mark` entries.
  void UndoTo(uint32_t mark);

  std::vector<AtomPlan> atoms_;
  std::vector<Arg> args_;
  std::vector<SlotPlan> slot_plans_;
  std::vector<uint32_t> occurrences_;
  // Scratch for one search: the slots bound by the search, in order.
  std::vector<uint32_t> trail_;
  uint32_t trail_size_ = 0;
  Term* slots_ = nullptr;
  bool existence_ = false;
  Callback callback_ = nullptr;
  void* context_ = nullptr;
  size_t count_ = 0;
};

/// Finds one homomorphism from `atoms` into `target` extending `seed`
/// (if given): the first in search order. Returns std::nullopt if none
/// exists.
std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed = nullptr);

/// Enumerates homomorphisms from `atoms` into `target` extending `seed`,
/// in search order. The callback returns true to continue enumeration,
/// false to stop. Returns the number of homomorphisms visited.
size_t ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed,
    const std::function<bool(const Substitution&)>& callback);

/// Incremental goal check for a chase that tests a Boolean goal against
/// one instance after every round. The goal is split into connected
/// components (atoms linked by shared non-constant terms), each compiled
/// once, which match independently. A matched component stays matched: the
/// chase engines only grow the instance, and their FD merges keep constants
/// as representatives, so a merge carries every match along. Each call
/// therefore searches only the still-unmatched components.
class GoalMatcher {
 public:
  /// `inject_stale_for_testing` plants a bug for the fuzz checkers to
  /// catch: after its first delta check the matcher stops re-checking
  /// unmatched components, so goals first matched deeper are missed.
  explicit GoalMatcher(const std::vector<Atom>& goal,
                       bool inject_stale_for_testing = false);

  /// True iff the whole goal has a homomorphism into `target`. With
  /// `delta` non-null, unmatched components only look for homomorphisms
  /// touching facts appended since `delta`; the previous call must have
  /// seen `target` as it was when `delta` was taken.
  bool Holds(const Instance& target, const Instance::DeltaMark* delta);

 private:
  std::vector<CompiledJoin> unmatched_;
  std::vector<Term> slots_;  // scratch, sized for the widest component
  bool inject_stale_for_testing_;
  uint64_t delta_checks_ = 0;
};

/// True if there is a homomorphism from instance `source` into `target`
/// (constants fixed, nulls and variables mappable).
bool InstanceHomomorphismExists(const Instance& source,
                                const Instance& target);

}  // namespace rbda

#endif  // RBDA_LOGIC_HOMOMORPHISM_H_
