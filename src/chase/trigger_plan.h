// Compiled trigger plans: the one TGD representation every saturation
// loop runs on — the witness-reuse countermodel (relevance.cc) and the
// restricted chase's rounds, frontier and TGD-major (chase.cc).
//
// A TGD is compiled once into dense slots: the body variables in
// first-occurrence order, then the existential variables in
// ExistentialVariables() order. Every position of a single body atom and
// of the head becomes a step that holds a constant, binds a slot (its
// first occurrence) or checks one. A loop unifies bodies with rows
// straight into a slot array, tests activeness and writes head rows from
// the same array — no Substitution, Instance or std::function per fact or
// per trigger. TGD atoms hold variables and constants only (the parser
// and every constructor in src/ build nothing else); any non-constant term
// is treated as a variable.
//
// The steps sit in one vector, the body atom's first, then each head
// atom's. Compiling a plan makes at most five heap allocations, plus a
// multi-atom body's join: the steps, the head atoms, the slot terms, the
// exported slots, and a scratch of (term, slot) entries sorted by term that
// the constructor binary-searches, so a wide TGD compiles in O(n log n).
//
// Body matches come in the search order of logic/homomorphism.h: a single
// body atom is unified with the relation's rows in row order, and bodies of
// other sizes go through a CompiledJoin over the body, compiled once per
// plan, whose slots become the plan's body slots, so the join binds them
// straight into the caller's slot array. Callers that fire in enumeration
// order therefore run the same chase the generic homomorphism search
// would.
#ifndef RBDA_CHASE_TRIGGER_PLAN_H_
#define RBDA_CHASE_TRIGGER_PLAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "constraints/tgd.h"

namespace rbda {

class CompiledTgd {
 public:
  explicit CompiledTgd(const Tgd& tgd);

  /// The relation of the body atom; single-atom bodies only.
  RelationId body_relation() const { return body_relation_; }
  uint32_t num_body_slots() const { return num_body_slots_; }
  /// Body slots followed by the existential slots.
  uint32_t num_slots() const { return num_slots_; }
  /// Body slots that occur in the head, ascending: two triggers agreeing
  /// on them need the same head witnesses.
  const std::vector<uint32_t>& exported_slots() const {
    return exported_slots_;
  }

  /// Unifies the (single) body atom with `row`, binding the body slots.
  bool MatchBody(FactRef row, Term* slots) const {
    return Unify(BodySteps(), row, slots);
  }

  /// Calls `fn(slots)` once per body match in `inst` — every match, or
  /// with `delta` non-null only those touching facts added since it — in
  /// search order, with the body slots filled. `fn` must not grow `inst`:
  /// collect first, fire afterwards. Not const: a multi-atom body's join
  /// keeps scratch state.
  template <typename Fn>
  void ForEachBodyMatch(const Instance& inst,
                        const Instance::DeltaMark* delta, Term* slots,
                        Fn&& fn) {
    if (body_join_ == nullptr) {
      FactRange rows = inst.FactsOf(body_relation_);
      const std::span<const Step> steps = BodySteps();
      const size_t end = rows.size();
      size_t r = delta != nullptr ? inst.DeltaBegin(*delta, body_relation_) : 0;
      for (; r < end; ++r) {
        if (Unify(steps, rows[r], slots)) fn(slots);
      }
      return;
    }
    body_join_->ForEach(inst, delta, slots, [&](const Term* bound) {
      fn(bound);
      return true;
    });
  }

  /// Activeness test for a trigger whose body slots are bound: true when
  /// some head witness already exists. A head with every position bound
  /// (a full TGD) is one ContainsRow per atom. A single head atom is one
  /// probe of the smallest column posting over its bound positions, with
  /// repeated existentials checked against each other. Other heads keep
  /// the generic search. May overwrite the existential slots; `row` is
  /// scratch.
  bool HasWitness(const Instance& inst, Term* slots,
                  std::vector<Term>* row) const;

  /// Fires the trigger: mints the existential nulls in
  /// ExistentialVariables() order, then adds the head rows in head order.
  /// Appends each new row to `created`; false when the instance refused a
  /// row (row-id space exhausted).
  bool Fire(Instance* inst, Universe* universe, Term* slots,
            std::vector<Term>* row, std::vector<FactRef>* created) const;

  size_t num_head_atoms() const { return head_.size(); }
  RelationId head_relation(size_t h) const { return head_[h].relation; }
  /// Writes head atom `h` under the slots into `row`, minting nothing: for
  /// callers whose existential slots are already filled (the
  /// countermodel's fixed witnesses).
  void HeadRow(size_t h, const Term* slots, std::vector<Term>* row) const;

  /// The variable each slot stands for, mapped to its value: the body
  /// homomorphism extended by the existential witnesses (ChaseStep).
  Substitution Bindings(const Term* slots) const;

 private:
  // How one atom position relates to the slots.
  enum class Op : uint8_t {
    kConstant,  // holds `term`
    kBind,      // first occurrence of `slot`: takes the row's value
    kCheck,     // bound `slot`: must equal the row's value
  };
  struct Step {
    Op op;
    uint32_t slot;
    Term term;  // the constant, or the variable `slot` stands for
  };
  // A head atom: its relation and its steps_[begin, end).
  struct HeadAtom {
    RelationId relation;
    uint32_t begin;
    uint32_t end;
  };

  std::span<const Step> BodySteps() const {
    return {steps_.data(), body_arity_};
  }
  std::span<const Step> HeadSteps(size_t h) const {
    return {steps_.data() + head_[h].begin, head_[h].end - head_[h].begin};
  }

  static bool Unify(std::span<const Step> steps, FactRef row, Term* slots) {
    if (row.arity() != steps.size()) return false;
    for (uint32_t p = 0; p < steps.size(); ++p) {
      const Step& step = steps[p];
      Term v = row.arg(p);
      switch (step.op) {
        case Op::kConstant:
          if (v != step.term) return false;
          break;
        case Op::kBind:
          slots[step.slot] = v;
          break;
        case Op::kCheck:
          if (slots[step.slot] != v) return false;
          break;
      }
    }
    return true;
  }

  const Tgd* tgd_;
  // The body atom, for single-atom bodies: its relation, and its steps
  // steps_[0, body_arity_). A join's body has no steps (body_arity_ 0).
  RelationId body_relation_ = 0;
  uint32_t body_arity_ = 0;
  // The join, for bodies of other than one atom; its slots, in its order,
  // are the body slots. Held by pointer: a join is several times the size
  // of the rest of a plan, and most plans have one body atom. Inline, it
  // made every plan of the countermodel and the generic engine bigger, and
  // their construction slower (docs/PERFORMANCE.md).
  std::unique_ptr<CompiledJoin> body_join_;
  std::vector<Step> steps_;
  std::vector<HeadAtom> head_;
  std::vector<Term> slot_terms_;  // the variable behind each slot
  std::vector<uint32_t> exported_slots_;
  uint32_t num_body_slots_ = 0;
  uint32_t num_slots_ = 0;
};

}  // namespace rbda

#endif  // RBDA_CHASE_TRIGGER_PLAN_H_
