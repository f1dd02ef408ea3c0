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

namespace {

// Half-open range of fact indexes (into FactsOf(relation)) an atom may
// match. The default admits every fact; semi-naive pivot partitioning
// narrows ranges per atom.
struct AtomRange {
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;
  bool Contains(uint32_t i) const { return i >= lo && i < hi; }
};

// Backtracking join over the atoms. The atom order is chosen dynamically:
// at each level we pick the remaining atom with the most bound arguments
// (ties broken by the smallest candidate-set estimate), which keeps
// intermediate candidate sets small. Bound-argument counts are maintained
// incrementally as variables bind/unbind, so atom selection never rescans
// argument lists against the substitution.
class Searcher {
 public:
  Searcher(const std::vector<Atom>& atoms, const Instance& target,
           std::function<bool(const Substitution&)> callback,
           const std::vector<AtomRange>* ranges = nullptr)
      : atoms_(atoms), target_(target), callback_(std::move(callback)),
        ranges_(ranges) {
    for (size_t i = 0; i < atoms_.size(); ++i) {
      for (const Term& t : atoms_[i].args) {
        if (!t.IsConstant()) {
          var_occurrences_[t].push_back(static_cast<uint32_t>(i));
        }
      }
    }
  }

  // Returns false if enumeration was aborted by the callback.
  bool Run(Substitution* sub) {
    used_.assign(atoms_.size(), false);
    bound_score_.assign(atoms_.size(), 0);
    for (size_t i = 0; i < atoms_.size(); ++i) {
      for (const Term& t : atoms_[i].args) {
        if (t.IsConstant() || sub->find(t) != sub->end()) ++bound_score_[i];
      }
    }
    return Recurse(sub, atoms_.size());
  }

  size_t count() const { return count_; }

 private:
  // Smallest posting list among this atom's bound argument positions
  // (nullptr when none is bound); *estimate gets the candidate count
  // either way. One substitution lookup per argument — binding state and
  // image come from the same find.
  const std::vector<uint32_t>* SmallestPostings(const Substitution& sub,
                                                const Atom& atom,
                                                size_t* estimate) const {
    const std::vector<uint32_t>* postings = nullptr;
    for (uint32_t p = 0; p < atom.args.size(); ++p) {
      Term t = atom.args[p];
      if (!t.IsConstant()) {
        auto it = sub.find(t);
        if (it == sub.end()) continue;
        t = it->second;
      }
      const std::vector<uint32_t>& list =
          target_.FactsWith(atom.relation, p, t);
      if (postings == nullptr || list.size() < postings->size()) {
        postings = &list;
      }
    }
    *estimate =
        postings ? postings->size() : target_.FactsOf(atom.relation).size();
    return postings;
  }

  // Picks the unused atom with the most bound arguments, breaking ties on
  // the smaller candidate-set estimate. Returns the chosen atom's posting
  // list through *postings_out so Recurse does not recompute it.
  size_t PickNextAtom(const Substitution& sub,
                      const std::vector<uint32_t>** postings_out) const {
    size_t best = atoms_.size();
    int best_score = -1;
    size_t best_estimate = 0;
    const std::vector<uint32_t>* best_postings = nullptr;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (used_[i]) continue;
      int score = bound_score_[i];
      if (score < best_score) continue;
      size_t estimate;
      const std::vector<uint32_t>* postings =
          SmallestPostings(sub, atoms_[i], &estimate);
      if (score > best_score || estimate < best_estimate) {
        best = i;
        best_score = score;
        best_estimate = estimate;
        best_postings = postings;
      }
    }
    *postings_out = best_postings;
    return best;
  }

  void BindVar(Substitution* sub, Term t, Term v,
               std::vector<Term>* newly_bound) {
    sub->emplace(t, v);
    newly_bound->push_back(t);
    for (uint32_t i : var_occurrences_.find(t)->second) ++bound_score_[i];
  }

  void UnbindVars(Substitution* sub, const std::vector<Term>& newly_bound) {
    for (Term t : newly_bound) {
      sub->erase(t);
      for (uint32_t i : var_occurrences_.find(t)->second) --bound_score_[i];
    }
  }

  bool Recurse(Substitution* sub, size_t remaining) {
    if (remaining == 0) {
      ++count_;
      return callback_(*sub);
    }
    const std::vector<uint32_t>* postings = nullptr;
    size_t idx = PickNextAtom(*sub, &postings);
    const Atom& atom = atoms_[idx];
    used_[idx] = true;

    // Packed row view: candidate rows are contiguous arena memory, and a
    // relation's rows all share one arity — an atom of a different arity
    // matches nothing.
    FactRange facts = target_.FactsOf(atom.relation);
    if (!facts.empty() && facts[0].arity() != atom.args.size()) {
      used_[idx] = false;
      return true;
    }

    bool keep_going = true;
    auto try_fact = [&](FactRef fact) -> bool {
      // Attempt to unify atom with fact, extending sub.
      std::vector<Term> newly_bound;
      bool match = true;
      for (size_t p = 0; p < atom.args.size(); ++p) {
        Term a = atom.args[p];
        Term v = fact.arg(static_cast<uint32_t>(p));
        if (a.IsConstant()) {
          if (a != v) {
            match = false;
            break;
          }
          continue;
        }
        auto it = sub->find(a);
        if (it != sub->end()) {
          if (it->second != v) {
            match = false;
            break;
          }
        } else {
          BindVar(sub, a, v, &newly_bound);
        }
      }
      if (match) {
        if (!Recurse(sub, remaining - 1)) {
          UnbindVars(sub, newly_bound);
          return false;
        }
      }
      UnbindVars(sub, newly_bound);
      return true;
    };

    AtomRange range;  // default: all facts
    if (ranges_ != nullptr) range = (*ranges_)[idx];
    if (postings != nullptr) {
      for (uint32_t i : *postings) {
        if (!range.Contains(i)) continue;
        if (!try_fact(facts[i])) {
          keep_going = false;
          break;
        }
      }
    } else {
      uint32_t end = std::min<uint32_t>(static_cast<uint32_t>(facts.size()),
                                        range.hi);
      for (uint32_t i = range.lo; i < end; ++i) {
        if (!try_fact(facts[i])) {
          keep_going = false;
          break;
        }
      }
    }
    used_[idx] = false;
    return keep_going;
  }

  const std::vector<Atom>& atoms_;
  const Instance& target_;
  std::function<bool(const Substitution&)> callback_;
  const std::vector<AtomRange>* ranges_;
  std::vector<bool> used_;
  // Atom indexes containing each non-constant term, one entry per
  // occurrence (feeds the incremental bound scores).
  std::unordered_map<Term, std::vector<uint32_t>, TermHash> var_occurrences_;
  std::vector<int> bound_score_;
  size_t count_ = 0;
};

}  // namespace

std::optional<Substitution> FindHomomorphism(const std::vector<Atom>& atoms,
                                             const Instance& target,
                                             const Substitution* seed) {
  std::optional<Substitution> found;
  auto callback = [&](const Substitution& sub) {
    found = sub;
    return false;  // stop at first
  };
  Substitution sub = seed ? *seed : Substitution();
  Searcher searcher(atoms, target, callback);
  searcher.Run(&sub);
  return found;
}

size_t ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed,
    const std::function<bool(const Substitution&)>& callback) {
  Substitution sub = seed ? *seed : Substitution();
  Searcher searcher(atoms, target, callback);
  searcher.Run(&sub);
  return searcher.count();
}

size_t ForEachHomomorphismDelta(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed, const Instance::DeltaMark& delta,
    const std::function<bool(const Substitution&)>& callback) {
  size_t total = 0;
  // Pivot partitioning: for pivot p, atom p matches inside the delta,
  // atoms before p match strictly before it, atoms after p match anywhere.
  // The union over pivots covers every homomorphism touching the delta,
  // and the partitions are disjoint, so nothing is visited twice.
  std::vector<AtomRange> ranges(atoms.size());
  for (size_t p = 0; p < atoms.size(); ++p) {
    uint32_t begin = target.DeltaBegin(delta, atoms[p].relation);
    if (begin >= target.FactsOf(atoms[p].relation).size()) {
      continue;  // no delta facts for this pivot's relation
    }
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j < p) {
        ranges[j] = AtomRange{0, target.DeltaBegin(delta, atoms[j].relation)};
      } else if (j == p) {
        ranges[j] = AtomRange{begin, UINT32_MAX};
      } else {
        ranges[j] = AtomRange{};
      }
    }
    Substitution sub = seed ? *seed : Substitution();
    Searcher searcher(atoms, target, callback, &ranges);
    bool keep_going = searcher.Run(&sub);
    total += searcher.count();
    if (!keep_going) break;  // callback asked to stop
  }
  return total;
}

std::optional<Substitution> FindHomomorphismDelta(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed, const Instance::DeltaMark& delta) {
  std::optional<Substitution> found;
  ForEachHomomorphismDelta(atoms, target, seed, delta,
                           [&](const Substitution& sub) {
                             found = sub;
                             return false;  // stop at first
                           });
  return found;
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
  std::vector<size_t> component_of(goal.size(), SIZE_MAX);
  for (size_t i = 0; i < goal.size(); ++i) {
    size_t root = find(i);
    if (component_of[root] == SIZE_MAX) {
      component_of[root] = unmatched_.size();
      unmatched_.emplace_back();
    }
    unmatched_[component_of[root]].push_back(goal[i]);
  }
}

bool GoalMatcher::Holds(const Instance& target,
                        const Instance::DeltaMark* delta) {
  if (delta != nullptr && inject_stale_for_testing_ && delta_checks_++ > 0) {
    return unmatched_.empty();
  }
  std::erase_if(unmatched_, [&](const std::vector<Atom>& component) {
    return delta != nullptr
               ? FindHomomorphismDelta(component, target, nullptr, *delta)
                     .has_value()
               : FindHomomorphism(component, target).has_value();
  });
  return unmatched_.empty();
}

bool InstanceHomomorphismExists(const Instance& source,
                                const Instance& target) {
  std::vector<Atom> atoms;
  atoms.reserve(source.NumFacts());
  source.ForEachFact([&](FactRef f) { atoms.push_back(Fact(f)); });
  return FindHomomorphism(atoms, target).has_value();
}

}  // namespace rbda
