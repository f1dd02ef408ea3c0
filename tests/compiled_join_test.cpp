// Differential test of the compiled join (logic/homomorphism.h) against a
// reference copy of the Substitution-based backtracking search it replaced.
//
// The generic chase and the countermodel fire triggers in the order the
// search yields body matches, so the join must reproduce that order exactly:
// the same matches, in the same sequence, with the same count — over the
// whole instance and restricted to a delta. Existence checks are order-free
// and need only agree on the answer.
//
// Seeded random conjunctions cover constants (present and absent),
// repeated variables, labeled nulls as mappable terms, atoms whose arity
// differs from their relation's rows, atoms over empty relations, and
// seeded slots.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "data/instance.h"
#include "data/universe.h"
#include "gtest/gtest.h"
#include "logic/homomorphism.h"

namespace rbda {
namespace {

// ---- Reference: the search as it stood before the compiled join. ----

struct AtomRange {
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;
  bool Contains(uint32_t i) const { return i >= lo && i < hi; }
};

// Backtracking join: the remaining atom with the most bound arguments
// first, ties broken by the smallest candidate-set estimate, then by atom
// order; candidates in ascending row order.
class ReferenceSearcher {
 public:
  ReferenceSearcher(const std::vector<Atom>& atoms, const Instance& target,
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
  // The smallest posting list over the bound positions; none when no
  // position is bound.
  using Postings = std::optional<std::span<const uint32_t>>;

  Postings SmallestPostings(const Substitution& sub, const Atom& atom,
                            size_t* estimate) const {
    Postings postings;
    for (uint32_t p = 0; p < atom.args.size(); ++p) {
      Term t = atom.args[p];
      if (!t.IsConstant()) {
        auto it = sub.find(t);
        if (it == sub.end()) continue;
        t = it->second;
      }
      std::span<const uint32_t> list =
          target_.FactsWith(atom.relation, p, t);
      if (!postings || list.size() < postings->size()) {
        postings = list;
      }
    }
    *estimate =
        postings ? postings->size() : target_.FactsOf(atom.relation).size();
    return postings;
  }

  size_t PickNextAtom(const Substitution& sub,
                      Postings* postings_out) const {
    size_t best = atoms_.size();
    int best_score = -1;
    size_t best_estimate = 0;
    Postings best_postings;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (used_[i]) continue;
      int score = bound_score_[i];
      if (score < best_score) continue;
      size_t estimate;
      Postings postings = SmallestPostings(sub, atoms_[i], &estimate);
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
    Postings postings;
    size_t idx = PickNextAtom(*sub, &postings);
    const Atom& atom = atoms_[idx];
    used_[idx] = true;

    FactRange facts = target_.FactsOf(atom.relation);
    if (!facts.empty() && facts[0].arity() != atom.args.size()) {
      used_[idx] = false;
      return true;
    }

    bool keep_going = true;
    auto try_fact = [&](FactRef fact) -> bool {
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

    AtomRange range;
    if (ranges_ != nullptr) range = (*ranges_)[idx];
    if (postings) {
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
  std::unordered_map<Term, std::vector<uint32_t>, TermHash> var_occurrences_;
  std::vector<int> bound_score_;
  size_t count_ = 0;
};

// Reference enumeration: the whole instance with `delta` null, else pivot
// partitioning over the atoms (pivot in the delta, earlier atoms before
// it, later atoms anywhere).
size_t ReferenceForEach(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed, const Instance::DeltaMark* delta,
    const std::function<bool(const Substitution&)>& callback) {
  if (delta == nullptr) {
    Substitution sub = seed;
    ReferenceSearcher searcher(atoms, target, callback);
    searcher.Run(&sub);
    return searcher.count();
  }
  size_t total = 0;
  std::vector<AtomRange> ranges(atoms.size());
  for (size_t p = 0; p < atoms.size(); ++p) {
    uint32_t begin = target.DeltaBegin(*delta, atoms[p].relation);
    if (begin >= target.FactsOf(atoms[p].relation).size()) continue;
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j < p) {
        ranges[j] = AtomRange{0, target.DeltaBegin(*delta, atoms[j].relation)};
      } else if (j == p) {
        ranges[j] = AtomRange{begin, UINT32_MAX};
      } else {
        ranges[j] = AtomRange{};
      }
    }
    Substitution sub = seed;
    ReferenceSearcher searcher(atoms, target, callback, &ranges);
    bool keep_going = searcher.Run(&sub);
    total += searcher.count();
    if (!keep_going) break;
  }
  return total;
}

// ---- The random cases. ----

struct Case {
  std::vector<Atom> atoms;
  Substitution seed;
};

class CompiledJoinDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint32_t arity = 1; arity <= 3; ++arity) {
      relations_.push_back(
          *universe_.AddRelation("R" + std::to_string(arity), arity));
      arities_.push_back(arity);
    }
    // Declared but never populated: atoms over it match nothing.
    relations_.push_back(*universe_.AddRelation("Empty", 2));
    arities_.push_back(2);
    for (int i = 0; i < 4; ++i) {
      domain_.push_back(universe_.Constant("c" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) domain_.push_back(universe_.FreshNull());
    absent_constant_ = universe_.Constant("absent");
    for (const char* name : {"x", "y", "z", "w"}) {
      variables_.push_back(universe_.Variable(name));
    }
    // Mappable nulls of the conjunction (a chase instance used as a query);
    // distinct from the data's nulls.
    for (int i = 0; i < 2; ++i) query_nulls_.push_back(universe_.FreshNull());
  }

  // Random facts over the populated relations, at their declared arities.
  void AddFacts(Rng* rng, size_t n, Instance* inst) const {
    for (size_t k = 0; k < n; ++k) {
      size_t r = rng->Below(3);
      std::vector<Term> args;
      for (uint32_t p = 0; p < arities_[r]; ++p) {
        args.push_back(domain_[rng->Below(domain_.size())]);
      }
      inst->AddFact(relations_[r], args);
    }
  }

  Term RandomTerm(Rng* rng) const {
    uint64_t roll = rng->Below(10);
    if (roll < 6) return variables_[rng->Below(variables_.size())];
    if (roll < 7) return query_nulls_[rng->Below(query_nulls_.size())];
    if (roll < 9) return domain_[rng->Below(4)];  // a constant
    return absent_constant_;
  }

  Case RandomCase(Rng* rng) const {
    Case c;
    size_t n = 1 + rng->Below(4);
    for (size_t i = 0; i < n; ++i) {
      size_t r = rng->Below(10) == 0 ? 3 : rng->Below(3);
      uint32_t arity = arities_[r];
      // Now and then an atom whose arity is not its relation's.
      if (rng->Below(8) == 0) arity = arity == 1 ? 2 : arity - 1;
      Atom atom;
      atom.relation = relations_[r];
      for (uint32_t p = 0; p < arity; ++p) atom.args.push_back(RandomTerm(rng));
      c.atoms.push_back(std::move(atom));
    }
    if (rng->Below(3) == 0) {
      for (const Atom& atom : c.atoms) {
        for (Term t : atom.args) {
          if (t.IsConstant() || rng->Below(3) != 0) continue;
          // Mostly a domain value; sometimes a null absent from the data.
          Term value = rng->Below(5) == 0 ? query_nulls_[0]
                                          : domain_[rng->Below(domain_.size())];
          c.seed.emplace(t, value);
        }
      }
    }
    return c;
  }

  Universe universe_;
  std::vector<RelationId> relations_;
  std::vector<uint32_t> arities_;
  std::vector<Term> domain_;
  std::vector<Term> variables_;
  std::vector<Term> query_nulls_;
  Term absent_constant_;
};

// Each match as the values of the join's slot terms, in slot order.
using Match = std::vector<Term>;

// Writes the values `seed` gives the join's slots into `slots`; returns
// those slots.
std::vector<uint32_t> SeedSlots(const CompiledJoin& join,
                                const Substitution& seed,
                                std::vector<Term>* slots) {
  slots->assign(join.num_slots(), Term());
  std::vector<uint32_t> seeded;
  for (uint32_t s = 0; s < join.num_slots(); ++s) {
    auto it = seed.find(join.slot_term(s));
    if (it == seed.end()) continue;
    (*slots)[s] = it->second;
    seeded.push_back(s);
  }
  return seeded;
}

std::vector<Match> JoinMatches(CompiledJoin* join, const Instance& target,
                               const Instance::DeltaMark* delta,
                               const Substitution& seed, size_t* count,
                               size_t stop_after = SIZE_MAX) {
  std::vector<Term> slots;
  std::vector<uint32_t> seeded = SeedSlots(*join, seed, &slots);
  std::vector<Match> out;
  *count = join->ForEach(
      target, delta, slots.data(),
      [&](const Term* bound) {
        out.emplace_back(bound, bound + join->num_slots());
        return out.size() < stop_after;
      },
      seeded);
  return out;
}

std::vector<Match> ReferenceMatches(const CompiledJoin& join,
                                    const Case& c, const Instance& target,
                                    const Instance::DeltaMark* delta,
                                    size_t* count,
                                    size_t stop_after = SIZE_MAX) {
  std::vector<Match> out;
  *count = ReferenceForEach(
      c.atoms, target, c.seed, delta, [&](const Substitution& sub) {
        Match m;
        for (uint32_t s = 0; s < join.num_slots(); ++s) {
          m.push_back(sub.at(join.slot_term(s)));
        }
        out.push_back(std::move(m));
        return out.size() < stop_after;
      });
  return out;
}

// Exists, checked against the instance: on true the slots must hold a
// match, with some atom on a delta fact when `delta` is given.
bool JoinExists(CompiledJoin* join, const Case& c, const Instance& target,
                const Instance::DeltaMark* delta) {
  std::vector<Term> slots;
  std::vector<uint32_t> seeded = SeedSlots(*join, c.seed, &slots);
  if (!join->Exists(target, delta, slots.data(), seeded)) return false;
  Substitution sub = c.seed;
  for (uint32_t s = 0; s < join->num_slots(); ++s) {
    sub[join->slot_term(s)] = slots[s];
  }
  bool touches_delta = delta == nullptr;
  for (const Atom& atom : c.atoms) {
    Fact image = ApplyToAtom(sub, atom);
    EXPECT_TRUE(target.Contains(image));
    if (touches_delta) continue;
    FactRange rows = target.FactsOf(image.relation);
    for (size_t r = target.DeltaBegin(*delta, image.relation);
         r < rows.size(); ++r) {
      if (Fact(rows[r]) == image) touches_delta = true;
    }
  }
  EXPECT_TRUE(touches_delta);
  return true;
}

TEST_F(CompiledJoinDifferentialTest, EnumerationOrderMatchesReference) {
  size_t nonempty_full = 0;
  size_t nonempty_delta = 0;
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    Instance inst;
    AddFacts(&rng, 4 + rng.Below(20), &inst);
    Instance::DeltaMark mark = inst.Mark();
    AddFacts(&rng, rng.Below(12), &inst);
    for (int q = 0; q < 4; ++q) {
      Case c = RandomCase(&rng);
      CompiledJoin join(c.atoms);
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q));
      const Instance::DeltaMark* no_delta = nullptr;
      const Instance::DeltaMark* with_delta = &mark;
      for (const Instance::DeltaMark* delta : {no_delta, with_delta}) {
        size_t want_count = 0;
        size_t got_count = 0;
        std::vector<Match> want =
            ReferenceMatches(join, c, inst, delta, &want_count);
        std::vector<Match> got =
            JoinMatches(&join, inst, delta, c.seed, &got_count);
        ASSERT_EQ(got, want) << (delta ? "delta" : "full");
        ASSERT_EQ(got_count, want_count);
        ASSERT_EQ(got_count, got.size());
        if (!want.empty()) ++(delta ? nonempty_delta : nonempty_full);

        // Stopping early stops at the same match with the same count.
        if (want.size() >= 2) {
          size_t stop = 1 + rng.Below(want.size() - 1);
          std::vector<Match> want_prefix =
              ReferenceMatches(join, c, inst, delta, &want_count, stop);
          std::vector<Match> got_prefix =
              JoinMatches(&join, inst, delta, c.seed, &got_count, stop);
          ASSERT_EQ(got_prefix, want_prefix);
          ASSERT_EQ(got_count, want_count);
        }

        // Existence agrees with the reference, and is order-free.
        ASSERT_EQ(JoinExists(&join, c, inst, delta), !want.empty());
      }
      // The Substitution wrappers hand out the seed extended by each
      // match, in the same order.
      std::vector<Substitution> wrapped;
      ForEachHomomorphism(c.atoms, inst, &c.seed,
                          [&](const Substitution& sub) {
                            wrapped.push_back(sub);
                            return true;
                          });
      std::vector<Substitution> reference;
      ReferenceForEach(c.atoms, inst, c.seed, nullptr,
                       [&](const Substitution& sub) {
                         reference.push_back(sub);
                         return true;
                       });
      ASSERT_EQ(wrapped, reference);
      std::optional<Substitution> first =
          FindHomomorphism(c.atoms, inst, &c.seed);
      ASSERT_EQ(first.has_value(), !reference.empty());
      if (first.has_value()) {
        ASSERT_EQ(*first, reference.front());
      }
    }
  }
  // The generator reaches non-trivial cases on both paths.
  EXPECT_GT(nonempty_full, 300u);
  EXPECT_GT(nonempty_delta, 150u);
}

TEST_F(CompiledJoinDifferentialTest, ExistenceFollowsAGrowingInstance) {
  // One join, searched again after every growth step, as GoalMatcher does:
  // the delta check finds exactly the matches the previous check could not
  // see.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    Case c = RandomCase(&rng);
    c.seed.clear();
    CompiledJoin join(c.atoms);
    std::vector<Term> slots(join.num_slots());
    Instance inst;
    bool seen = false;
    for (int step = 0; step < 5; ++step) {
      Instance::DeltaMark mark = inst.Mark();
      AddFacts(&rng, 1 + rng.Below(6), &inst);
      size_t count = 0;
      bool want_delta =
          !ReferenceMatches(join, c, inst, &mark, &count).empty();
      bool want_full =
          !ReferenceMatches(join, c, inst, nullptr, &count).empty();
      ASSERT_EQ(join.Exists(inst, &mark, slots.data()), want_delta)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(join.Exists(inst, nullptr, slots.data()), want_full);
      ASSERT_EQ(seen || want_delta, want_full);
      seen = want_full;
    }
  }
}

TEST(CompiledJoinTest, NullaryLastAtomChosenFirst) {
  // N() has one row and R two, so the search starts from N(), the last
  // atom, whose arguments begin one past the end of the argument array.
  Universe u;
  RelationId r = *u.AddRelation("R", 2);
  RelationId n = *u.AddRelation("N", 0);
  Term x = u.Variable("x");
  Term y = u.Variable("y");
  Instance inst;
  inst.AddFact(r, {u.Constant("a"), u.Constant("b")});
  inst.AddFact(r, {u.Constant("b"), u.Constant("c")});
  inst.AddFact(n, std::vector<Term>{});
  std::vector<Atom> atoms{Atom(r, {x, y}), Atom(n, {})};
  CompiledJoin join(atoms);
  std::vector<Term> slots(join.num_slots());
  EXPECT_EQ(join.ForEach(inst, nullptr, slots.data(),
                         [](const Term*) { return true; }),
            2u);
  EXPECT_TRUE(join.Exists(inst, nullptr, slots.data()));
}

}  // namespace
}  // namespace rbda
