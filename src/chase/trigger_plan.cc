#include "chase/trigger_plan.h"

#include <algorithm>

namespace rbda {

namespace {

// The constructor's slot lookup: a variable, its slot (kUnassigned until
// assigned), and whether the head uses it — a body slot used there is
// exported, and an existential used there has been bound by its first
// head occurrence.
struct SlotEntry {
  Term term;
  uint32_t slot;
  bool in_head;
};
constexpr uint32_t kUnassigned = UINT32_MAX;

// The entry for `t` in `entries`, sorted by term, or null.
SlotEntry* FindSlot(std::vector<SlotEntry>& entries, Term t) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), t,
      [](const SlotEntry& e, Term term) { return e.term < term; });
  return it != entries.end() && it->term == t ? &*it : nullptr;
}

}  // namespace

CompiledTgd::CompiledTgd(const Tgd& tgd) : tgd_(&tgd) {
  // Every variable once, sorted by term: the body's non-constant terms and
  // the head's variables.
  std::vector<SlotEntry> lookup;
  size_t body_args = 0;
  size_t head_args = 0;
  for (const Atom& a : tgd.body()) body_args += a.args.size();
  for (const Atom& h : tgd.head()) head_args += h.args.size();
  lookup.reserve(body_args + head_args);
  for (const Atom& a : tgd.body()) {
    for (Term t : a.args) {
      if (!t.IsConstant()) lookup.push_back(SlotEntry{t, kUnassigned, false});
    }
  }
  for (const Atom& h : tgd.head()) {
    for (Term t : h.args) {
      if (t.IsVariable()) lookup.push_back(SlotEntry{t, kUnassigned, false});
    }
  }
  std::sort(lookup.begin(), lookup.end(),
            [](const SlotEntry& a, const SlotEntry& b) {
              return a.term < b.term;
            });
  lookup.erase(std::unique(lookup.begin(), lookup.end(),
                           [](const SlotEntry& a, const SlotEntry& b) {
                             return a.term == b.term;
                           }),
               lookup.end());
  slot_terms_.reserve(lookup.size());

  if (tgd.body().size() == 1) {
    const Atom& a = tgd.body()[0];
    body_relation_ = a.relation;
    body_arity_ = static_cast<uint32_t>(a.args.size());
    steps_.reserve(body_arity_ + head_args);
    for (Term t : a.args) {
      if (t.IsConstant()) {
        steps_.push_back(Step{Op::kConstant, 0, t});
        continue;
      }
      SlotEntry* e = FindSlot(lookup, t);
      const bool first = e->slot == kUnassigned;
      if (first) {
        e->slot = static_cast<uint32_t>(slot_terms_.size());
        slot_terms_.push_back(t);
      }
      steps_.push_back(Step{first ? Op::kBind : Op::kCheck, e->slot, t});
    }
  } else {
    // The join binds the body slots in the caller's slot array, so its
    // slot order is the plan's.
    body_join_ = std::make_unique<CompiledJoin>(tgd.body());
    steps_.reserve(head_args);
    for (uint32_t s = 0; s < body_join_->num_slots(); ++s) {
      FindSlot(lookup, body_join_->slot_term(s))->slot = s;
      slot_terms_.push_back(body_join_->slot_term(s));
    }
  }
  num_body_slots_ = static_cast<uint32_t>(slot_terms_.size());
  // The existentials are the head variables the body left without a slot;
  // in the lookup's term order they are ExistentialVariables().
  for (SlotEntry& e : lookup) {
    if (e.slot != kUnassigned) continue;
    e.slot = static_cast<uint32_t>(slot_terms_.size());
    slot_terms_.push_back(e.term);
  }
  num_slots_ = static_cast<uint32_t>(slot_terms_.size());

  head_.reserve(tgd.head().size());
  for (const Atom& h : tgd.head()) {
    const auto begin = static_cast<uint32_t>(steps_.size());
    for (Term t : h.args) {
      SlotEntry* e = t.IsConstant() ? nullptr : FindSlot(lookup, t);
      if (e == nullptr) {
        steps_.push_back(Step{Op::kConstant, 0, t});
        continue;
      }
      // The body binds its slots; an existential is bound by its first
      // head occurrence.
      const bool bound = e->slot < num_body_slots_ || e->in_head;
      e->in_head = true;
      steps_.push_back(Step{bound ? Op::kCheck : Op::kBind, e->slot, t});
    }
    head_.push_back(
        HeadAtom{h.relation, begin, static_cast<uint32_t>(steps_.size())});
  }
  // The exported slots: the body slots the head uses, ascending.
  auto exported = [&](const SlotEntry& e) {
    return e.in_head && e.slot < num_body_slots_;
  };
  exported_slots_.reserve(
      std::count_if(lookup.begin(), lookup.end(), exported));
  for (const SlotEntry& e : lookup) {
    if (exported(e)) exported_slots_.push_back(e.slot);
  }
  std::sort(exported_slots_.begin(), exported_slots_.end());
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
  const std::span<const Step> head = HeadSteps(0);
  FactRange rows = inst.FactsOf(head_[0].relation);
  if (rows.empty() || rows[0].arity() != head.size()) return false;
  std::span<const uint32_t> postings;
  bool probed = false;
  for (uint32_t p = 0; p < head.size(); ++p) {
    const Step& step = head[p];
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
      if (Unify(head, r, slots)) return true;
    }
    return false;
  }
  for (uint32_t i : postings) {
    if (Unify(head, rows[i], slots)) return true;
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
  for (const Step& step : HeadSteps(h)) {
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
