// Homomorphism search: the workhorse behind query evaluation, chase trigger
// enumeration, CQ containment, and the universality checks in tests.
//
// A homomorphism maps non-constant terms (variables, labeled nulls) to
// terms, is the identity on constants, and must send every atom of the
// source onto a fact of the target instance. The search is a backtracking
// join: atoms are processed most-bound-first and candidate facts come from
// the target's positional index.
#ifndef RBDA_LOGIC_HOMOMORPHISM_H_
#define RBDA_LOGIC_HOMOMORPHISM_H_

#include <functional>
#include <optional>
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

/// Finds one homomorphism from `atoms` into `target` extending `seed`
/// (if given). Returns std::nullopt if none exists.
std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed = nullptr);

/// Enumerates homomorphisms from `atoms` into `target` extending `seed`.
/// The callback returns true to continue enumeration, false to stop.
/// Returns the number of homomorphisms visited.
size_t ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed,
    const std::function<bool(const Substitution&)>& callback);

/// Semi-naive (delta-restricted) enumeration: visits exactly those
/// homomorphisms that map at least one atom onto a fact appended after
/// `delta` was taken (requires target.MarkValid(delta)). Implemented by
/// pivot partitioning — pivot atom i maps into the delta, atoms before i
/// map into the pre-delta prefix, atoms after i map anywhere — so each
/// qualifying homomorphism is visited exactly once. Homomorphisms whose
/// atoms all land in pre-delta facts are skipped; a caller that saw the
/// pre-delta instance already enumerated them.
size_t ForEachHomomorphismDelta(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed, const Instance::DeltaMark& delta,
    const std::function<bool(const Substitution&)>& callback);

/// Delta-restricted existence check: first homomorphism with at least one
/// atom in the delta, or std::nullopt.
std::optional<Substitution> FindHomomorphismDelta(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed, const Instance::DeltaMark& delta);

/// Incremental goal check for a chase that tests a Boolean goal against
/// one instance after every round. The goal is split into connected
/// components (atoms linked by shared non-constant terms), which match
/// independently. A matched component stays matched: the chase engines
/// only grow the instance, and their FD merges keep constants as
/// representatives, so a merge carries every match along. Each call
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
  std::vector<std::vector<Atom>> unmatched_;
  bool inject_stale_for_testing_;
  uint64_t delta_checks_ = 0;
};

/// True if there is a homomorphism from instance `source` into `target`
/// (constants fixed, nulls and variables mappable).
bool InstanceHomomorphismExists(const Instance& source,
                                const Instance& target);

}  // namespace rbda

#endif  // RBDA_LOGIC_HOMOMORPHISM_H_
