#include "chase/trigger_plan.h"

#include <algorithm>
#include <unordered_map>

namespace rbda {

CompiledTgd::CompiledTgd(const Tgd& tgd) : tgd_(&tgd) {
  std::unordered_map<Term, uint32_t, TermHash> slot_of;
  auto new_slot = [&](Term t) {
    auto [it, inserted] =
        slot_of.emplace(t, static_cast<uint32_t>(slot_terms_.size()));
    if (inserted) slot_terms_.push_back(t);
    return std::make_pair(it->second, inserted);
  };
  if (tgd.body().size() == 1) {
    const Atom& a = tgd.body()[0];
    body_.relation = a.relation;
    for (Term t : a.args) {
      if (t.IsConstant()) {
        body_.steps.push_back(Step{Op::kConstant, 0, t});
        continue;
      }
      auto [slot, first] = new_slot(t);
      body_.steps.push_back(Step{first ? Op::kBind : Op::kCheck, slot, t});
    }
  } else {
    // The join binds the body slots in the caller's slot array, so its
    // slot order is the plan's.
    body_join_ = std::make_unique<CompiledJoin>(tgd.body());
    for (uint32_t s = 0; s < body_join_->num_slots(); ++s) {
      new_slot(body_join_->slot_term(s));
    }
  }
  num_body_slots_ = static_cast<uint32_t>(slot_terms_.size());
  // The existentials are the head variables the body left without a slot;
  // sorted and deduplicated, they are ExistentialVariables().
  for (const Atom& h : tgd.head()) {
    for (Term t : h.args) {
      if (t.IsVariable() && !slot_of.contains(t)) slot_terms_.push_back(t);
    }
  }
  const auto existentials = slot_terms_.begin() + num_body_slots_;
  std::sort(existentials, slot_terms_.end());
  slot_terms_.erase(std::unique(existentials, slot_terms_.end()),
                    slot_terms_.end());
  for (uint32_t s = num_body_slots_; s < slot_terms_.size(); ++s) {
    slot_of.emplace(slot_terms_[s], s);
  }
  num_slots_ = static_cast<uint32_t>(slot_terms_.size());

  std::vector<bool> seen(num_slots_, false);
  std::vector<bool> exported(num_body_slots_, false);
  for (uint32_t s = 0; s < num_body_slots_; ++s) seen[s] = true;
  for (const Atom& h : tgd.head()) {
    CompiledAtom atom{h.relation, {}};
    for (Term t : h.args) {
      auto it = slot_of.find(t);
      if (t.IsConstant() || it == slot_of.end()) {
        atom.steps.push_back(Step{Op::kConstant, 0, t});
        continue;
      }
      uint32_t s = it->second;
      if (s < num_body_slots_) exported[s] = true;
      atom.steps.push_back(Step{seen[s] ? Op::kCheck : Op::kBind, s, t});
      seen[s] = true;
    }
    head_.push_back(std::move(atom));
  }
  for (uint32_t s = 0; s < num_body_slots_; ++s) {
    if (exported[s]) exported_slots_.push_back(s);
  }
}

bool CompiledTgd::HasWitness(const Instance& inst, Term* slots,
                             std::vector<Term>* row) const {
  if (num_slots_ == num_body_slots_) {
    for (size_t h = 0; h < head_.size(); ++h) {
      HeadRow(h, slots, row);
      if (!inst.ContainsRow(head_[h].relation, *row)) return false;
    }
    return true;
  }
  if (head_.size() != 1) {
    Substitution seed;
    for (uint32_t s = 0; s < num_body_slots_; ++s) {
      seed.emplace(slot_terms_[s], slots[s]);
    }
    return FindHomomorphism(tgd_->head(), inst, &seed).has_value();
  }
  const CompiledAtom& head = head_[0];
  FactRange rows = inst.FactsOf(head.relation);
  if (rows.empty() || rows[0].arity() != head.steps.size()) return false;
  std::span<const uint32_t> postings;
  bool probed = false;
  for (uint32_t p = 0; p < head.steps.size(); ++p) {
    const Step& step = head.steps[p];
    if (step.op == Op::kBind ||
        (step.op == Op::kCheck && step.slot >= num_body_slots_)) {
      continue;  // existential: free in the probe
    }
    Term value = step.op == Op::kConstant ? step.term : slots[step.slot];
    std::span<const uint32_t> list = rows.Postings(p, value);
    if (list.empty()) return false;
    if (!probed || list.size() < postings.size()) postings = list;
    probed = true;
  }
  if (!probed) {
    for (FactRef r : rows) {
      if (Unify(head.steps, r, slots)) return true;
    }
    return false;
  }
  for (uint32_t i : postings) {
    if (Unify(head.steps, rows[i], slots)) return true;
  }
  return false;
}

bool CompiledTgd::Fire(Instance* inst, Universe* universe, Term* slots,
                       std::vector<Term>* row,
                       std::vector<FactRef>* created) const {
  for (uint32_t s = num_body_slots_; s < num_slots_; ++s) {
    slots[s] = universe->FreshNull();
  }
  for (size_t h = 0; h < head_.size(); ++h) {
    HeadRow(h, slots, row);
    bool inserted = false;
    if (!inst->TryAddRow(head_[h].relation, *row, &inserted).ok()) {
      return false;
    }
    if (inserted) {
      FactRange rows = inst->FactsOf(head_[h].relation);
      created->push_back(rows[rows.size() - 1]);
    }
  }
  return true;
}

void CompiledTgd::HeadRow(size_t h, const Term* slots,
                          std::vector<Term>* row) const {
  row->clear();
  for (const Step& step : head_[h].steps) {
    row->push_back(step.op == Op::kConstant ? step.term : slots[step.slot]);
  }
}

Substitution CompiledTgd::Bindings(const Term* slots) const {
  Substitution out;
  out.reserve(num_slots_);
  for (uint32_t s = 0; s < num_slots_; ++s) {
    out.emplace(slot_terms_[s], slots[s]);
  }
  return out;
}

}  // namespace rbda
