#include "logic/homomorphism.h"

#include <algorithm>
#include <cstdint>

namespace rbda {

Term ApplyToTerm(const Substitution& sub, Term t) {
  auto it = sub.find(t);
  return it == sub.end() ? t : it->second;
}

Atom ApplyToAtom(const Substitution& sub, const Atom& atom) {
  Atom out = atom;
  for (Term& t : out.args) t = ApplyToTerm(sub, t);
  return out;
}

std::vector<Atom> ApplyToAtoms(const Substitution& sub,
                               const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const Atom& a : atoms) out.push_back(ApplyToAtom(sub, a));
  return out;
}

CompiledJoin::CompiledJoin(std::span<const Atom> atoms) {
  size_t num_args = 0;
  for (const Atom& atom : atoms) num_args += atom.args.size();
  atoms_.reserve(atoms.size());
  args_.reserve(num_args);
  slot_plans_.reserve(num_args);
  std::unordered_map<Term, uint32_t, TermHash> slot_of;
  auto slot_for = [&](Term t) {
    auto [it, inserted] =
        slot_of.try_emplace(t, static_cast<uint32_t>(slot_plans_.size()));
    if (inserted) slot_plans_.emplace_back().term = t;
    return it->second;
  };
  // First pass: slots, and each slot's occurrence count in end_occurrence.
  for (const Atom& atom : atoms) {
    AtomPlan& plan = atoms_.emplace_back();
    plan.relation = atom.relation;
    plan.first_arg = static_cast<uint32_t>(args_.size());
    plan.arity = static_cast<uint32_t>(atom.args.size());
    for (Term t : atom.args) {
      if (t.IsConstant()) {
        args_.push_back(Arg{kNoSlot, t});
        ++plan.constants;
        continue;
      }
      uint32_t s = slot_for(t);
      ++slot_plans_[s].end_occurrence;
      args_.push_back(Arg{s, Term()});
    }
  }
  // Second pass: group the occurrences by slot.
  uint32_t offset = 0;
  for (SlotPlan& slot : slot_plans_) {
    slot.first_occurrence = offset;
    offset += slot.end_occurrence;
    slot.end_occurrence = slot.first_occurrence;
  }
  occurrences_.resize(offset);
  for (uint32_t i = 0; i < atoms_.size(); ++i) {
    const AtomPlan& plan = atoms_[i];
    for (uint32_t p = 0; p < plan.arity; ++p) {
      uint32_t s = args_[plan.first_arg + p].slot;
      if (s != kNoSlot) occurrences_[slot_plans_[s].end_occurrence++] = i;
    }
  }
  trail_.resize(slot_plans_.size());
}

size_t CompiledJoin::Run(const Instance& target,
                         const Instance::DeltaMark* delta, Term* slots,
                         std::span<const uint32_t> seeded, bool existence,
                         Callback callback, void* context) {
  slots_ = slots;
  existence_ = existence;
  callback_ = callback;
  context_ = context;
  count_ = 0;
  trail_size_ = 0;
  for (AtomPlan& atom : atoms_) {
    atom.rows = target.FactsOf(atom.relation);
    atom.range = Range{};
    atom.bound = atom.constants;
    atom.used = false;
  }
  for (SlotPlan& slot : slot_plans_) slot.bound = false;
  for (uint32_t s : seeded) {
    if (!slot_plans_[s].bound) SetBound(s, true);
  }
  const size_t n = atoms_.size();
  if (delta == nullptr) {
    Search(n);
    return count_;
  }
  // Pivot partitioning: the union over pivots covers every homomorphism
  // touching the delta, and the partitions are disjoint.
  for (AtomPlan& atom : atoms_) {
    atom.delta_begin = target.DeltaBegin(*delta, atom.relation);
  }
  for (size_t p = 0; p < n; ++p) {
    if (atoms_[p].delta_begin >= atoms_[p].rows.size()) continue;
    for (size_t j = 0; j < n; ++j) {
      atoms_[j].range = j < p    ? Range{0, atoms_[j].delta_begin}
                        : j == p ? Range{atoms_[p].delta_begin, UINT32_MAX}
                                 : Range{};
    }
    if (!Search(n)) break;  // the callback asked to stop
  }
  return count_;
}

size_t CompiledJoin::Estimate(const AtomPlan& atom,
                              std::span<const uint32_t>* postings,
                              bool* probed) const {
  const Range range = atom.range;
  const bool whole = !existence_ || (range.lo == 0 && range.hi == UINT32_MAX);
  *probed = false;
  size_t best = 0;
  for (uint32_t p = 0; p < atom.arity; ++p) {
    const Arg& arg = args_[atom.first_arg + p];
    Term value = arg.constant;
    if (arg.slot != kNoSlot) {
      if (!slot_plans_[arg.slot].bound) continue;
      value = slots_[arg.slot];
    }
    std::span<const uint32_t> list = atom.rows.Postings(p, value);
    size_t size = list.size();
    if (!whole) {
      size = std::lower_bound(list.begin(), list.end(), range.hi) -
             std::lower_bound(list.begin(), list.end(), range.lo);
    }
    if (!*probed || size < best) {
      *postings = list;
      *probed = true;
      best = size;
    }
  }
  if (*probed) return best;
  const size_t rows = atom.rows.size();
  if (whole) return rows;
  return range.lo < rows ? std::min<size_t>(rows, range.hi) - range.lo : 0;
}

void CompiledJoin::SetBound(uint32_t slot, bool bound) {
  SlotPlan& plan = slot_plans_[slot];
  plan.bound = bound;
  const int step = bound ? 1 : -1;
  for (uint32_t k = plan.first_occurrence; k < plan.end_occurrence; ++k) {
    atoms_[occurrences_[k]].bound += step;
  }
}

void CompiledJoin::Bind(uint32_t slot, Term value) {
  slots_[slot] = value;
  SetBound(slot, true);
  trail_[trail_size_++] = slot;
}

void CompiledJoin::UndoTo(uint32_t mark) {
  while (trail_size_ > mark) SetBound(trail_[--trail_size_], false);
}

bool CompiledJoin::Search(size_t remaining) {
  if (remaining == 0) {
    ++count_;
    return callback_ != nullptr && callback_(context_, slots_);
  }
  // The unused atom with the most bound positions, ties broken by the
  // smaller estimate, then by atom order.
  AtomPlan* best = nullptr;
  int best_score = -1;
  size_t best_estimate = 0;
  std::span<const uint32_t> best_postings;
  bool best_probed = false;
  for (AtomPlan& atom : atoms_) {
    if (atom.used || atom.bound < best_score) continue;
    std::span<const uint32_t> postings;
    bool probed;
    size_t estimate = Estimate(atom, &postings, &probed);
    if (atom.bound > best_score || estimate < best_estimate) {
      best = &atom;
      best_score = atom.bound;
      best_estimate = estimate;
      best_postings = postings;
      best_probed = probed;
    }
  }
  AtomPlan& atom = *best;
  const FactRange rows = atom.rows;
  // A relation's rows share one arity: an atom of another arity matches
  // nothing.
  if (!rows.empty() && rows[0].arity() != atom.arity) return true;

  // A nullary last atom starts one past the end: no element is formed.
  const Arg* args = args_.data() + atom.first_arg;
  auto try_row = [&](uint32_t r) {
    const FactRef row = rows[r];
    const uint32_t mark = trail_size_;
    bool match = true;
    for (uint32_t p = 0; p < atom.arity && match; ++p) {
      const Arg& arg = args[p];
      Term v = row.arg(p);
      if (arg.slot == kNoSlot) {
        match = v == arg.constant;
      } else if (slot_plans_[arg.slot].bound) {
        match = v == slots_[arg.slot];
      } else {
        Bind(arg.slot, v);
      }
    }
    bool keep_going = !match || Search(remaining - 1);
    UndoTo(mark);
    return keep_going;
  };

  atom.used = true;
  bool keep_going = true;
  const Range range = atom.range;
  if (best_probed) {
    for (auto it = std::lower_bound(best_postings.begin(),
                                    best_postings.end(), range.lo);
         keep_going && it != best_postings.end() && *it < range.hi; ++it) {
      keep_going = try_row(*it);
    }
  } else {
    const uint32_t end =
        static_cast<uint32_t>(std::min<size_t>(rows.size(), range.hi));
    for (uint32_t r = range.lo; keep_going && r < end; ++r) {
      keep_going = try_row(r);
    }
  }
  atom.used = false;
  return keep_going;
}

namespace {

// Writes the values `seed` gives the join's slots into `slots` and returns
// those slots.
std::vector<uint32_t> SeedSlots(const CompiledJoin& join,
                                const Substitution* seed,
                                std::vector<Term>* slots) {
  std::vector<uint32_t> seeded;
  if (seed == nullptr || seed->empty()) return seeded;
  for (uint32_t s = 0; s < join.num_slots(); ++s) {
    auto it = seed->find(join.slot_term(s));
    if (it == seed->end()) continue;
    (*slots)[s] = it->second;
    seeded.push_back(s);
  }
  return seeded;
}

// The seed extended by a match's slots.
Substitution Extend(const CompiledJoin& join, const Substitution* seed,
                    const Term* slots) {
  Substitution sub = seed ? *seed : Substitution();
  for (uint32_t s = 0; s < join.num_slots(); ++s) {
    sub.emplace(join.slot_term(s), slots[s]);
  }
  return sub;
}

}  // namespace

std::optional<Substitution> FindHomomorphism(const std::vector<Atom>& atoms,
                                             const Instance& target,
                                             const Substitution* seed) {
  CompiledJoin join(atoms);
  std::vector<Term> slots(join.num_slots());
  std::vector<uint32_t> seeded = SeedSlots(join, seed, &slots);
  std::optional<Substitution> found;
  join.ForEach(
      target, nullptr, slots.data(),
      [&](const Term* match) {
        found = Extend(join, seed, match);
        return false;  // stop at first
      },
      seeded);
  return found;
}

size_t ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed,
    const std::function<bool(const Substitution&)>& callback) {
  CompiledJoin join(atoms);
  std::vector<Term> slots(join.num_slots());
  std::vector<uint32_t> seeded = SeedSlots(join, seed, &slots);
  return join.ForEach(
      target, nullptr, slots.data(),
      [&](const Term* match) { return callback(Extend(join, seed, match)); },
      seeded);
}

GoalMatcher::GoalMatcher(const std::vector<Atom>& goal,
                         bool inject_stale_for_testing)
    : inject_stale_for_testing_(inject_stale_for_testing) {
  // Union-find over atom indexes; atoms sharing a non-constant term join.
  std::vector<size_t> parent(goal.size());
  for (size_t i = 0; i < goal.size(); ++i) parent[i] = i;
  auto find = [&parent](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::unordered_map<Term, size_t, TermHash> first_atom;
  for (size_t i = 0; i < goal.size(); ++i) {
    for (Term t : goal[i].args) {
      if (t.IsConstant()) continue;
      auto [it, inserted] = first_atom.emplace(t, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  // Components in order of their first atom, atoms in goal order.
  std::vector<std::vector<Atom>> components;
  std::vector<size_t> component_of(goal.size(), SIZE_MAX);
  for (size_t i = 0; i < goal.size(); ++i) {
    size_t root = find(i);
    if (component_of[root] == SIZE_MAX) {
      component_of[root] = components.size();
      components.emplace_back();
    }
    components[component_of[root]].push_back(goal[i]);
  }
  size_t width = 0;
  unmatched_.reserve(components.size());
  for (const std::vector<Atom>& component : components) {
    width = std::max<size_t>(width, unmatched_.emplace_back(component)
                                        .num_slots());
  }
  slots_.resize(width);
}

bool GoalMatcher::Holds(const Instance& target,
                        const Instance::DeltaMark* delta) {
  if (delta != nullptr && inject_stale_for_testing_ && delta_checks_++ > 0) {
    return unmatched_.empty();
  }
  // Every unmatched component is searched, so a component matched now is
  // never left for a later delta check that could no longer see it.
  size_t kept = 0;
  for (size_t i = 0; i < unmatched_.size(); ++i) {
    if (unmatched_[i].Exists(target, delta, slots_.data())) continue;
    if (kept != i) unmatched_[kept] = std::move(unmatched_[i]);
    ++kept;
  }
  unmatched_.erase(unmatched_.begin() + kept, unmatched_.end());
  return unmatched_.empty();
}

bool InstanceHomomorphismExists(const Instance& source,
                                const Instance& target) {
  std::vector<Atom> atoms;
  atoms.reserve(source.NumFacts());
  source.ForEachFact([&](FactRef f) { atoms.push_back(Fact(f)); });
  CompiledJoin join(atoms);
  std::vector<Term> slots(join.num_slots());
  return join.Exists(target, nullptr, slots.data());
}

}  // namespace rbda
