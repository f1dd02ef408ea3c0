#include <functional>
#include <map>
#include <string>

#include "chase/chase.h"
#include "chase/containment.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace rbda {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 2);
    t_ = *universe_.AddRelation("T", 1);
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
    z_ = universe_.Variable("z");
    a_ = universe_.Constant("a");
    b_ = universe_.Constant("b");
    c_ = universe_.Constant("c");
  }
  Universe universe_;
  RelationId r_, s_, t_;
  Term x_, y_, z_, a_, b_, c_;
};

TEST_F(ChaseTest, FiresTgdWithFreshNull) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.instance.NumFacts(), 2u);
  // The created fact has a null in the second position.
  FactRange rf = result.instance.FactsOf(r_);
  ASSERT_EQ(rf.size(), 1u);
  EXPECT_EQ(rf[0].arg(0), a_);
  EXPECT_TRUE(rf[0].arg(1).IsNull());
}

TEST_F(ChaseTest, RestrictedChaseSkipsSatisfiedTriggers) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  start.AddFact(r_, {a_, b_});  // witness already present
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.instance.NumFacts(), 2u);
  EXPECT_EQ(result.tgd_steps, 0u);
}

TEST_F(ChaseTest, ResultSatisfiesConstraints) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(t_, {x_})});
  Instance start;
  start.AddFact(r_, {a_, b_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_TRUE(cs.SatisfiedBy(result.instance));
}

TEST_F(ChaseTest, UniversalityOfChaseResult) {
  // The chase result embeds homomorphically into any model containing the
  // start instance.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  ChaseResult result = RunChase(start, cs, &universe_);

  Instance model;  // a different model of the constraints
  model.AddFact(t_, {a_});
  model.AddFact(r_, {a_, c_});
  EXPECT_TRUE(InstanceHomomorphismExists(result.instance, model));
}

TEST_F(ChaseTest, EgdMergesNulls) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  start.AddFact(r_, {a_, b_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  // The TGD never fires (witness exists), so no merge was even needed; the
  // FD holds.
  EXPECT_TRUE(cs.SatisfiedBy(result.instance));
  EXPECT_EQ(result.instance.FactsOf(r_).size(), 1u);
}

TEST_F(ChaseTest, EgdMergePrefersConstants) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  Instance start;
  Term n = universe_.FreshNull();
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, n});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.egd_merges, 1u);
  EXPECT_TRUE(result.instance.Contains(Fact(r_, {a_, b_})));
  EXPECT_EQ(result.instance.NumFacts(), 1u);
}

TEST_F(ChaseTest, EgdConstantConflictFails) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  Instance start;
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kFdConflict);
}

TEST_F(ChaseTest, BudgetExceededOnInfiniteChase) {
  // R(x,y) -> S(y,z); S(x,y) -> R(y,z): generates an infinite chain.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {y_, z_})});
  Instance start;
  start.AddFact(r_, {a_, b_});
  ChaseOptions options;
  options.max_rounds = 10;
  ChaseResult result = RunChase(start, cs, &universe_, options);
  EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded);
}

TEST_F(ChaseTest, FactBudgetEnforcedInsideRound) {
  // Ten triggers are simultaneously active in round 1, each adding a
  // 2-fact head. A round-granularity budget check would let the round run
  // to completion (30 facts); the in-round check must stop at the trigger
  // whose firing crossed the budget.
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {y_, x_})});
  Instance start;
  for (int i = 0; i < 10; ++i) {
    start.AddFact(t_, {universe_.Constant("k" + std::to_string(i))});
  }
  ChaseOptions options;
  options.max_facts = 14;
  ChaseResult result = RunChase(start, cs, &universe_, options);
  EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(result.exhausted, ChaseExhausted::kFacts);
  // Overshoot is bounded by one head, not by the rest of the round.
  EXPECT_GT(result.instance.NumFacts(), 14u);
  EXPECT_LE(result.instance.NumFacts(), 16u);
}

TEST_F(ChaseTest, RowIdCapDegradesToBudgetExceededNotAbort) {
  // When a relation store runs out of 32-bit row ids mid-firing, the chase
  // must degrade exactly like a fact-budget trip (kBudgetExceeded /
  // kFacts) instead of aborting the process. The testing cap stands in
  // for the real 2^32 ceiling.
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {y_, x_})});
  Instance start;
  for (int i = 0; i < 10; ++i) {
    start.AddFact(t_, {universe_.Constant("k" + std::to_string(i))});
  }
  start.SetMaxRowsPerRelationForTesting(4);  // r fills up on the 5th head
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(result.exhausted, ChaseExhausted::kFacts);
  // 10 t-facts + at most 4 rows each in r and s before the cap trips.
  EXPECT_LE(result.instance.NumFacts(), 18u);
}

TEST_F(ChaseTest, FactBudgetDoesNotMaskReachedGoal) {
  // The same budget trip, but the goal appears before the budget does:
  // RunChaseUntil must report the goal, not the trip.
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {y_, x_})});
  Instance start;
  for (int i = 0; i < 10; ++i) {
    start.AddFact(t_, {universe_.Constant("g" + std::to_string(i))});
  }
  ChaseOptions options;
  options.max_facts = 14;
  bool goal_reached = false;
  std::vector<Atom> goal{Atom(r_, {x_, y_})};
  ChaseResult result = RunChaseUntil(start, cs, goal, &universe_,
                                     &goal_reached, options);
  EXPECT_TRUE(goal_reached);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
}

TEST_F(ChaseTest, FdRepairResolvesLongMergeChain) {
  // R(k_i, m_i) and R(k_i, m_{i+1}) force m_i = m_{i+1} for a chain of 400
  // nulls ending in the constant b: the whole chain must collapse onto b in
  // one chase, with exactly one merge per link. The union-find repair
  // resolves this without restarting the scan after every merge (the old
  // restart-on-merge repair was quadratic here).
  constexpr int kChain = 400;
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  std::vector<Term> m;
  for (int i = 0; i < kChain; ++i) m.push_back(universe_.FreshNull());
  m.push_back(b_);
  Instance start;
  for (int i = 0; i < kChain; ++i) {
    Term key = universe_.Constant("key" + std::to_string(i));
    start.AddFact(r_, {key, m[i]});
    start.AddFact(r_, {key, m[i + 1]});
  }
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.egd_merges, static_cast<uint64_t>(kChain));
  // Every merged class resolved to the constant end of the chain.
  EXPECT_EQ(result.instance.NumFacts(), static_cast<size_t>(kChain));
  for (FactRef f : result.instance.FactsOf(r_)) {
    EXPECT_EQ(f.arg(1), b_);
  }
  EXPECT_TRUE(cs.SatisfiedBy(result.instance));
}

TEST_F(ChaseTest, FdRepairConflictAcrossMergeChain) {
  // As above but both ends of the chain are distinct constants: resolving
  // the chain must surface the conflict rather than pick a winner.
  constexpr int kChain = 50;
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  std::vector<Term> m;
  m.push_back(a_);
  for (int i = 0; i < kChain - 1; ++i) m.push_back(universe_.FreshNull());
  m.push_back(c_);
  Instance start;
  for (int i = 0; i < kChain; ++i) {
    Term key = universe_.Constant("ckey" + std::to_string(i));
    start.AddFact(r_, {key, m[i]});
    start.AddFact(r_, {key, m[i + 1]});
  }
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kFdConflict);
}

// Trigger dedup under load: R holds 50 keys k_i times 100 values m_j, so
// each TGD's first round enumerates at least 5,000 body matches, which the
// engine's dedup table folds onto 50 or 100 exported images, growing
// several times and emptied between TGDs. Round 1 fires, in row order:
//   R(x, y) → ∃z S(x, z)         once per k_i (nulls _n0.._n49),
//   R(x, y) → ∃z S(y, z)         once per m_j (nulls _n50.._n149),
//   R(x, y) ∧ S(x, z) → T(z)     once per k_i's null, 5,000 matches too;
// round 2 fires nothing.
TEST_F(ChaseTest, TriggerDedupFoldsThousandsOfMatchesOntoFewImages) {
  constexpr int kKeys = 50;
  constexpr int kValues = 100;
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {x_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(s_, {x_, z_})},
      std::vector<Atom>{Atom(t_, {z_})});
  std::vector<Term> keys;
  std::vector<Term> values;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(universe_.Constant("k" + std::to_string(i)));
  }
  for (int j = 0; j < kValues; ++j) {
    values.push_back(universe_.Constant("m" + std::to_string(j)));
  }
  Instance start;
  for (Term k : keys) {
    for (Term m : values) start.AddFact(r_, {k, m});
  }
  Instance expected = start;
  for (int i = 0; i < kKeys; ++i) {
    expected.AddFact(s_, {keys[i], Term::Null(i)});
    expected.AddFact(t_, {Term::Null(i)});
  }
  for (int j = 0; j < kValues; ++j) {
    expected.AddFact(s_, {values[j], Term::Null(kKeys + j)});
  }
  for (bool semi : {true, false}) {
    SCOPED_TRACE(semi ? "semi-naive" : "naive");
    Universe universe = universe_;  // nulls from _n0 on each run
    ChaseOptions options;
    options.use_semi_naive = semi;
    ChaseResult result = RunChase(start, cs, &universe, options);
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(result.tgd_steps, uint64_t{2 * kKeys + kValues});
    EXPECT_EQ(result.instance.NumFacts(), expected.NumFacts());
    EXPECT_EQ(result.instance.ToString(universe), expected.ToString(universe));
  }
}

// A witness key made stale by a merge in the same FD pass stays stale.
// Pass 1 over R, with fd R: 0 → 1, in row order: R(n0, ·) stores key
// (n0); R(k, n0), R(k, a) merge n0 into a, so that key is now stale;
// R(a, ·) resolves to the representative a, misses the stale (n0) and
// stores a key of its own. Only pass 2, where R(n0, ·) resolves to (a)
// too, compares the two values.
TEST_F(ChaseTest, FdKeyStaleAfterAMergeInTheSamePass) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  Term k = universe_.Constant("k");
  Term k2 = universe_.Constant("k2");
  for (bool semi : {true, false}) {
    SCOPED_TRACE(semi ? "semi-naive" : "naive");
    ChaseOptions options;
    options.use_semi_naive = semi;
    Universe universe = universe_;
    const Term n0 = universe.FreshNull();
    const Term n1 = universe.FreshNull();
    const Term n2 = universe.FreshNull();
    const Term n3 = universe.FreshNull();

    // Nulls on both sides: pass 2 merges n2 into n1, the older null.
    Instance start;
    start.AddFact(r_, {n0, n1});
    start.AddFact(r_, {k, n0});
    start.AddFact(r_, {k, a_});
    start.AddFact(r_, {a_, n2});
    ChaseResult result = RunChase(start, cs, &universe, options);
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(result.egd_merges, 2u);
    Instance expected;
    expected.AddFact(r_, {a_, n1});
    expected.AddFact(r_, {k, a_});
    EXPECT_EQ(result.instance.ToString(universe), expected.ToString(universe));

    // Constants on both sides: the conflict surfaces in pass 2, after the
    // second merge of pass 1 (n3 into c). Refreshing the stale key would
    // find it in pass 1, after one merge.
    Instance conflict;
    conflict.AddFact(r_, {n0, b_});
    conflict.AddFact(r_, {k, n0});
    conflict.AddFact(r_, {k, a_});
    conflict.AddFact(r_, {a_, c_});
    conflict.AddFact(r_, {k2, n3});
    conflict.AddFact(r_, {k2, c_});
    ChaseResult failed = RunChase(conflict, cs, &universe, options);
    EXPECT_EQ(failed.status, ChaseStatus::kFdConflict);
    EXPECT_EQ(failed.egd_merges, 2u);
  }
}

TEST_F(ChaseTest, TraceRecordsFirings) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(t_, {a_});
  ChaseOptions options;
  options.record_trace = true;
  ChaseResult result = RunChase(start, cs, &universe_, options);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].tgd_index, 0u);
  EXPECT_EQ(result.trace[0].added.size(), 1u);
}

TEST_F(ChaseTest, CardinalityRuleCreatesWitnesses) {
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule;
  rule.source_rel = r_;
  rule.input_positions = {0};
  rule.target_rel = racc;
  rule.bound = 2;
  rule.accessible_rel = acc;

  Instance start;
  start.AddFact(acc, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  start.AddFact(r_, {a_, universe_.Constant("d")});  // 3 matches, bound 2
  start.AddFact(r_, {b_, c_});                       // binding b not accessible

  ConstraintSet cs;
  ChaseResult result = RunChase(start, cs, &universe_, {}, {rule});
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  // Exactly min(2, 3) = 2 accessed witnesses for binding a; none for b.
  size_t count_a = 0, count_b = 0;
  for (FactRef f : result.instance.FactsOf(racc)) {
    if (f.arg(0) == a_) ++count_a;
    if (f.arg(0) == b_) ++count_b;
  }
  EXPECT_EQ(count_a, 2u);
  EXPECT_EQ(count_b, 0u);
}

TEST_F(ChaseTest, CardinalityRuleRespectsExistingWitnesses) {
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule{r_, {0}, racc, 2, acc};

  Instance start;
  start.AddFact(acc, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  start.AddFact(racc, {a_, b_});  // one witness already there
  ConstraintSet cs;
  ChaseResult result = RunChase(start, cs, &universe_, {}, {rule});
  EXPECT_EQ(result.instance.FactsOf(racc).size(), 2u);
}

// ---- The delta FD check and delta cardinality rounds. ----
//
// Each case runs the semi-naive and the naive engine: the FD check is the
// same in both, and a naive run re-checks every cardinality binding each
// round, so the two must agree on every count.

TEST_F(ChaseTest, FdViolatedOnlyBetweenTwoNewFacts) {
  // Round 1 adds R(a, n1) and R(a, n2) in one firing. Neither disagrees
  // with an older fact (R(b, c) has another key), so only comparing the
  // second new fact with the first new row of its key finds the merge.
  // W's FD comes first and has two determiners: for W(b, a, n2) the walk
  // skips W(b, b, c), whose first determiner alone agrees.
  RelationId w = *universe_.AddRelation("W", 3);
  ConstraintSet cs;
  cs.fds.emplace_back(w, std::vector<uint32_t>{0, 1}, 2);
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(r_, {x_, y_}), Atom(r_, {x_, z_}),
                        Atom(w, {b_, x_, y_}), Atom(w, {b_, x_, z_})});
  Instance start;
  start.AddFact(t_, {a_});
  start.AddFact(r_, {b_, c_});
  start.AddFact(w, {b_, b_, c_});
  start.AddFact(w, {c_, a_, c_});
  for (bool semi : {true, false}) {
    ChaseOptions options;
    options.use_semi_naive = semi;
    ChaseResult result = RunChase(start, cs, &universe_, options);
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(result.egd_merges, 1u) << "semi=" << semi;
    EXPECT_EQ(result.instance.FactsOf(r_).size(), 2u);
    EXPECT_EQ(result.instance.FactsOf(w).size(), 3u);
    EXPECT_TRUE(cs.SatisfiedBy(result.instance));
  }
}

TEST_F(ChaseTest, FdWithNoDeterminersComparesWithTheFirstRow) {
  // "fd R: -> 1": every R fact shares position 1. The new R(a, n) is
  // compared with row 0, R(b, c), and n merges into c.
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{}, 1);
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance start;
  start.AddFact(r_, {b_, c_});
  start.AddFact(t_, {a_});
  ChaseResult result = RunChase(start, cs, &universe_);
  EXPECT_EQ(result.status, ChaseStatus::kCompleted);
  EXPECT_EQ(result.egd_merges, 1u);
  EXPECT_TRUE(result.instance.Contains(Fact(r_, {a_, c_})));
  EXPECT_EQ(result.instance.FactsOf(r_).size(), 2u);

  // Two constants at position 1 conflict, whatever their keys.
  Instance conflict;
  conflict.AddFact(r_, {a_, b_});
  conflict.AddFact(r_, {c_, c_});
  EXPECT_EQ(RunChase(conflict, cs, &universe_).status,
            ChaseStatus::kFdConflict);
}

// Counts the facts of `relation` whose position 0 holds `value`.
size_t CountWithFirst(const Instance& inst, RelationId relation, Term value) {
  size_t n = 0;
  for (FactRef f : inst.FactsOf(relation)) n += f.arg(0) == value;
  return n;
}

TEST_F(ChaseTest, CardinalityBindingAccessibleInALaterRound) {
  // R(a, b) and R(a, c) are in the start instance, but a becomes
  // accessible only in round 2 (T -> U in round 1, then U -> acc). No
  // source fact is in round 2's delta, so the binding is found through
  // the postings of the newly accessible a.
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId u = *universe_.AddRelation("U", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule{r_, {0}, racc, 5, acc};
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(u, {x_})},
                       std::vector<Atom>{Atom(acc, {x_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(u, {x_})});
  Instance start;
  start.AddFact(t_, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  start.AddFact(r_, {b_, c_});  // b never becomes accessible
  for (bool semi : {true, false}) {
    ChaseOptions options;
    options.use_semi_naive = semi;
    ChaseResult result = RunChase(start, cs, &universe_, options, {rule});
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(CountWithFirst(result.instance, racc, a_), 2u)
        << "semi=" << semi;
    EXPECT_EQ(CountWithFirst(result.instance, racc, b_), 0u);
  }
}

TEST_F(ChaseTest, CardinalityInputFreeMethod) {
  // An input-free method's rule has one empty binding, accessible
  // vacuously. R grows from 1 to 3 facts in round 2 (T -> U, then
  // U -> R), so the binding, dirty again, needs min(4, 3) = 3 witnesses.
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId u = *universe_.AddRelation("U", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule{r_, {}, racc, 4, acc};
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(u, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(u, {x_})});
  Instance start;
  start.AddFact(r_, {c_, c_});
  start.AddFact(t_, {a_});
  start.AddFact(t_, {b_});
  for (bool semi : {true, false}) {
    ChaseOptions options;
    options.use_semi_naive = semi;
    ChaseResult result = RunChase(start, cs, &universe_, options, {rule});
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(result.instance.FactsOf(r_).size(), 3u);
    EXPECT_EQ(result.instance.FactsOf(racc).size(), 3u) << "semi=" << semi;
    for (FactRef f : result.instance.FactsOf(racc)) {
      EXPECT_TRUE(f.arg(0).IsNull() && f.arg(1).IsNull());
    }
  }
}

TEST_F(ChaseTest, CardinalityBoundAboveSourceCount) {
  // Bound 5 over two source facts for a demands two witnesses, not five;
  // source facts for a derived in a later round raise the demand.
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId u = *universe_.AddRelation("U", 1);
  RelationId racc = *universe_.AddRelation("Racc", 2);
  CardinalityRule rule{r_, {0}, racc, 5, acc};
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(u, {x_})},
                       std::vector<Atom>{Atom(r_, {x_, y_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                       std::vector<Atom>{Atom(u, {x_})});
  Instance start;
  start.AddFact(acc, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {a_, c_});
  start.AddFact(t_, {a_});
  for (bool semi : {true, false}) {
    ChaseOptions options;
    options.use_semi_naive = semi;
    ChaseResult result = RunChase(start, cs, &universe_, options, {rule});
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    // U -> R(a, y) is inactive (R(a, b) witnesses it): two witnesses.
    EXPECT_EQ(CountWithFirst(result.instance, racc, a_), 2u)
        << "semi=" << semi;
  }
  // Here round 2 derives R(a, b) and R(a, a) (V -> R(a, x)), so the
  // binding a goes from one source fact to three.
  Instance grow;
  grow.AddFact(acc, {a_});
  grow.AddFact(r_, {b_, b_});
  grow.AddFact(r_, {a_, c_});
  grow.AddFact(t_, {b_});
  grow.AddFact(t_, {a_});
  RelationId v = *universe_.AddRelation("V", 1);
  ConstraintSet cs2;
  cs2.tgds.emplace_back(std::vector<Atom>{Atom(v, {x_})},
                        std::vector<Atom>{Atom(r_, {a_, x_})});
  cs2.tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_})},
                        std::vector<Atom>{Atom(v, {x_})});
  for (bool semi : {true, false}) {
    ChaseOptions options;
    options.use_semi_naive = semi;
    ChaseResult result = RunChase(grow, cs2, &universe_, options, {rule});
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(CountWithFirst(result.instance, r_, a_), 3u);
    EXPECT_EQ(CountWithFirst(result.instance, racc, a_), 3u)
        << "semi=" << semi;
  }
}

// ---- Pins of the generic engine's trigger path. ----
//
// Each case renders the whole run — rounds, firings, every recorded
// ChaseStep (round, TGD, body homomorphism plus witnesses, created facts
// in creation order) and the final instance, nulls included — and
// compares it with the rendering recorded from the Substitution-based
// engine, so any change in which triggers fire, in what order, or which
// nulls they mint shows up here.
std::string Render(const ChaseResult& r, const Universe& u) {
  std::string out = "rounds=" + std::to_string(r.rounds) +
                    " tgd_steps=" + std::to_string(r.tgd_steps) +
                    " facts=" + std::to_string(r.instance.NumFacts()) + "\n";
  for (const ChaseStep& step : r.trace) {
    std::map<std::string, std::string> trigger;
    for (const auto& [var, value] : step.trigger) {
      trigger[u.TermName(var)] = u.TermName(value);
    }
    out += "step round=" + std::to_string(step.round) +
           " tgd=" + std::to_string(step.tgd_index) + " {";
    for (const auto& [var, value] : trigger) out += var + "=" + value + " ";
    out += "} +";
    for (const Fact& f : step.added) out += " " + FactToString(f, u);
    out += "\n";
  }
  return out + r.instance.ToString(u);
}

class ChasePinTest : public ChaseTest {
 protected:
  std::string Chase(const Instance& start, const ConstraintSet& cs) {
    ChaseOptions options;
    options.record_trace = true;
    return Render(RunChase(start, cs, &universe_, options), universe_);
  }
};

// A full head of two atoms: R(x,y) → S(y,x) ∧ T(x). The trigger on R(a,b)
// is already satisfied and is skipped; R(c,a) finds S(a,c) present and
// adds only T(c).
TEST_F(ChasePinTest, SatisfiedFullMultiAtomHeadIsSkipped) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_}), Atom(t_, {x_})});
  Instance start;
  start.AddFact(r_, {a_, b_});
  start.AddFact(s_, {b_, a_});
  start.AddFact(t_, {a_});
  start.AddFact(r_, {b_, c_});
  start.AddFact(r_, {c_, a_});
  start.AddFact(s_, {a_, c_});
  EXPECT_EQ(Chase(start, cs),
            "rounds=2 tgd_steps=2 facts=9\n"
            "step round=1 tgd=0 {x=b y=c } + S(c, b) T(b)\n"
            "step round=1 tgd=0 {x=c y=a } + T(c)\n"
            "R(a, b)\n"
            "R(b, c)\n"
            "R(c, a)\n"
            "S(a, c)\n"
            "S(b, a)\n"
            "S(c, b)\n"
            "T(a)\n"
            "T(b)\n"
            "T(c)\n");
}

// The bounded-method accessibility axiom shape: one existential shared by
// three head atoms, acc(x) ∧ R(x,y) → ∃z R(x,z) ∧ P(x,z) ∧ acc(z).
TEST_F(ChasePinTest, ExistentialSharedAcrossThreeHeadAtoms) {
  RelationId acc = *universe_.AddRelation("acc", 1);
  RelationId p = *universe_.AddRelation("P", 2);
  Term d = universe_.Constant("d");
  ConstraintSet cs;
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(acc, {x_}), Atom(r_, {x_, y_})},
      std::vector<Atom>{Atom(r_, {x_, z_}), Atom(p, {x_, z_}),
                        Atom(acc, {z_})});
  Instance start;
  start.AddFact(acc, {a_});
  start.AddFact(r_, {a_, b_});
  start.AddFact(r_, {b_, c_});  // b is not accessible
  start.AddFact(acc, {c_});     // c's trigger is already satisfied
  start.AddFact(r_, {c_, d});
  start.AddFact(p, {c_, d});
  start.AddFact(acc, {d});
  EXPECT_EQ(Chase(start, cs),
            "rounds=2 tgd_steps=1 facts=10\n"
            "step round=1 tgd=0 {x=a y=b z=_n0 }"
            " + R(a, _n0) P(a, _n0) acc(_n0)\n"
            "R(a, b)\n"
            "R(a, _n0)\n"
            "R(b, c)\n"
            "R(c, d)\n"
            "acc(a)\n"
            "acc(c)\n"
            "acc(d)\n"
            "acc(_n0)\n"
            "P(a, _n0)\n"
            "P(c, d)\n");
}

// A body with a repeated variable and a constant: V(x, x, c) → S(x, z),
// then S(x, y) → T(y).
TEST_F(ChasePinTest, BodyWithConstantAndRepeatedVariable) {
  RelationId v = *universe_.AddRelation("V", 3);
  Term d = universe_.Constant("d");
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(v, {x_, x_, c_})},
                       std::vector<Atom>{Atom(s_, {x_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(t_, {y_})});
  Instance start;
  start.AddFact(v, {a_, a_, c_});
  start.AddFact(v, {a_, b_, c_});  // x, x does not unify
  start.AddFact(v, {b_, b_, d});   // constant c does not unify
  start.AddFact(v, {d, d, c_});
  EXPECT_EQ(Chase(start, cs),
            "rounds=2 tgd_steps=4 facts=8\n"
            "step round=1 tgd=0 {x=a z=_n0 } + S(a, _n0)\n"
            "step round=1 tgd=0 {x=d z=_n1 } + S(d, _n1)\n"
            "step round=1 tgd=1 {x=a y=_n0 } + T(_n0)\n"
            "step round=1 tgd=1 {x=d y=_n1 } + T(_n1)\n"
            "S(a, _n0)\n"
            "S(d, _n1)\n"
            "T(_n0)\n"
            "T(_n1)\n"
            "V(a, a, c)\n"
            "V(a, b, c)\n"
            "V(b, b, d)\n"
            "V(d, d, c)\n");
}

// Two body matches with the same exported tuple in one semi-naive round:
// round 1 creates S(a, n1) and S(a, n2); in round 2, S(x, y) → R(x, z)
// matches both with x = a and fires once, for the first match.
TEST_F(ChasePinTest, SameExportedTupleTwiceInOneDeltaRound) {
  Term w = universe_.Variable("w");
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {x_, z_})});
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(t_, {x_})},
      std::vector<Atom>{Atom(s_, {x_, y_}), Atom(s_, {x_, w})});
  Instance start;
  start.AddFact(t_, {a_});
  EXPECT_EQ(Chase(start, cs),
            "rounds=3 tgd_steps=2 facts=4\n"
            "step round=1 tgd=1 {w=_n1 x=a y=_n0 } + S(a, _n0) S(a, _n1)\n"
            "step round=2 tgd=0 {x=a y=_n0 z=_n2 } + R(a, _n2)\n"
            "R(a, _n2)\n"
            "S(a, _n0)\n"
            "S(a, _n1)\n"
            "T(a)\n");
}

// ---- Containment. ----

TEST_F(ChaseTest, ContainmentUnderIds) {
  // Σ: R(x,y) -> S(y,x).  Q: R(a,b)  ⊆_Σ  Q': S(b,a)? Yes.
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery good = ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})});
  ConjunctiveQuery bad = ConjunctiveQuery::Boolean({Atom(s_, {a_, b_})});
  EXPECT_EQ(CheckContainment(q, good, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckContainment(q, bad, cs, &universe_).verdict,
            ContainmentVerdict::kNotContained);
}

// Near-collision cases, kept under the suite name of the key tests of the
// containment memoization cache they were first written for. Each poses
// problems that differ only in argument order, in where one constant name
// ends and the next begins, in a constant named like a variable, or in the
// pruning mode. All probes of a case run twice, interleaved, and each must
// keep its own verdict every time.
class ContainmentCacheTest : public ChaseTest {
 protected:
  struct Probe {
    ConjunctiveQuery q;
    ConjunctiveQuery goal;
    ContainmentVerdict verdict;
    ChaseOptions options = {};
  };

  // Σ is the single TGD R(x,y) → head.
  ConstraintSet SingleTgd(const Atom& head) const {
    ConstraintSet cs;
    cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                         std::vector<Atom>{head});
    return cs;
  }

  void ExpectVerdicts(const ConstraintSet& cs,
                      const std::vector<Probe>& probes) {
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < probes.size(); ++i) {
        const Probe& p = probes[i];
        EXPECT_EQ(
            CheckContainment(p.q, p.goal, cs, &universe_, p.options).verdict,
            p.verdict)
            << "round " << round << ", probe " << i;
      }
    }
  }
};

TEST_F(ContainmentCacheTest, ArgumentOrderNearCollision) {
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ExpectVerdicts(
      SingleTgd(Atom(s_, {x_, y_})),
      {{q, ConjunctiveQuery::Boolean({Atom(s_, {a_, b_})}),
        ContainmentVerdict::kContained},
       {q, ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})}),
        ContainmentVerdict::kNotContained}});
}

// Constant names "ab","c" against "a","bc".
TEST_F(ContainmentCacheTest, ConstantBoundaryNearCollision) {
  Term ab = universe_.Constant("ab");
  Term bc = universe_.Constant("bc");
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(s_, {ab, c_})});
  ExpectVerdicts(
      SingleTgd(Atom(s_, {x_, y_})),
      {{ConjunctiveQuery::Boolean({Atom(r_, {ab, c_})}), goal,
        ContainmentVerdict::kContained},
       {ConjunctiveQuery::Boolean({Atom(r_, {a_, bc})}), goal,
        ContainmentVerdict::kNotContained}});
}

// A constant named "x" and a variable named x are different terms; frozen
// query variables must not unify with the like-named constant in the goal.
TEST_F(ContainmentCacheTest, ConstantVersusVariableNearCollision) {
  Term cx = universe_.Constant("x");
  Term cy = universe_.Constant("y");
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(t_, {cx})});
  ExpectVerdicts(
      SingleTgd(Atom(t_, {x_})),
      {{ConjunctiveQuery::Boolean({Atom(r_, {cx, cy})}), goal,
        ContainmentVerdict::kContained},
       {ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})}), goal,
        ContainmentVerdict::kNotContained}});
}

// On the cyclic existential Σ R → S → R the chase never terminates and never
// makes a T fact: goal-directed mode refutes the containment, the budgeted
// full chase stays kUnknown.
TEST_F(ContainmentCacheTest, PruneModeKeysDistinctEntries) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {y_, z_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery goal = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  ChaseOptions pruned;
  pruned.max_rounds = 4;
  ChaseOptions unpruned = pruned;
  unpruned.prune_to_goal = false;
  ExpectVerdicts(cs, {{q, goal, ContainmentVerdict::kNotContained, pruned},
                      {q, goal, ContainmentVerdict::kUnknown, unpruned}});
}

TEST_F(ChaseTest, ContainmentVacuousOnFdConflict) {
  ConstraintSet cs;
  cs.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  // Q forces two distinct constants at a determined position.
  ConjunctiveQuery q = ConjunctiveQuery::Boolean(
      {Atom(r_, {a_, b_}), Atom(r_, {a_, c_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  EXPECT_EQ(CheckContainment(q, qp, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
}

TEST_F(ChaseTest, ContainmentUnknownOnBudget) {
  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, z_})});
  cs.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                       std::vector<Atom>{Atom(r_, {y_, z_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  ChaseOptions options;
  options.max_rounds = 5;
  options.prune_to_goal = false;  // exercise the raw budgeted-chase path
  EXPECT_EQ(CheckContainment(q, qp, cs, &universe_, options).verdict,
            ContainmentVerdict::kUnknown);
  // Goal-directed mode notices that no constraint can ever produce T and
  // refutes the containment outright — strictly more complete than the
  // budget-limited chase on the same inputs.
  ChaseOptions pruned;
  pruned.max_rounds = 5;
  EXPECT_EQ(CheckContainment(q, qp, cs, &universe_, pruned).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(ChaseTest, LinearContainmentMatchesGeneric) {
  // Chain of UIDs: R[1] ⊆ S[0], S[1] ⊆ T[0].
  std::vector<Tgd> ids;
  ids.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                   std::vector<Atom>{Atom(s_, {y_, z_})});
  ids.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                   std::vector<Atom>{Atom(t_, {y_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery yes = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  ConjunctiveQuery no = ConjunctiveQuery::Boolean({Atom(t_, {a_})});

  uint64_t depth = JohnsonKlugDepthBound(1, ids.size(), 0, 2, 1);
  EXPECT_EQ(CheckLinearContainment(q, yes, ids, &universe_, depth).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckLinearContainment(q, no, ids, &universe_, depth).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(ChaseTest, LinearContainmentInfiniteChaseDecided) {
  // Cyclic UIDs: infinite restricted chase, but the JK bound still decides.
  std::vector<Tgd> ids;
  ids.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                   std::vector<Atom>{Atom(s_, {y_, z_})});
  ids.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                   std::vector<Atom>{Atom(r_, {y_, z_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  ConjunctiveQuery no = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  uint64_t depth = JohnsonKlugDepthBound(1, ids.size(), 0, 2, 1);
  ChaseOptions unpruned;
  unpruned.prune_to_goal = false;
  ContainmentOutcome outcome =
      CheckLinearContainment(q, no, ids, &universe_, depth, 500000, unpruned);
  EXPECT_EQ(outcome.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(outcome.depth_reached, depth);  // ran to the bound
  // Goal-directed mode refutes from the relation signature alone: T is not
  // reachable from {R, S}, so the engine answers before expanding a level.
  ContainmentOutcome pruned =
      CheckLinearContainment(q, no, ids, &universe_, depth);
  EXPECT_EQ(pruned.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(pruned.depth_reached, 0u);
}

// The UCQ front end reports like the other two: one containment.checks
// count, one containment.check_us sample and one profiler record for each
// disjunct of Q it checks (here, one).
TEST_F(ChaseTest, UcqContainmentIsCountedTimedAndProfiled) {
  Counter* checks =
      MetricsRegistry::Default().GetCounter("containment.checks");
  Distribution* check_us =
      MetricsRegistry::Default().GetDistribution("containment.check_us");
  Counter* prune_checks =
      MetricsRegistry::Default().GetCounter("containment.prune.checks");
  Counter* pruned = MetricsRegistry::Default().GetCounter(
      "containment.prune.constraints_pruned");
  const uint64_t checks_before = checks->value();
  const uint64_t samples_before = check_us->count();
  const uint64_t records_before =
      QueryProfiler::Default().TakeSnapshot().checks;
  const uint64_t prune_checks_before = prune_checks->value();
  const uint64_t pruned_before = pruned->value();

  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  // U feeds no goal relation, so the relevance closure prunes this TGD.
  RelationId u = *universe_.AddRelation("U", 1);
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(u, {x_})});
  UnionQuery q({ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})})});
  UnionQuery q_prime({ConjunctiveQuery::Boolean({Atom(t_, {a_})}),
                      ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})})});
  EXPECT_EQ(CheckUcqContainment(q, q_prime, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(checks->value(), checks_before + 1);
  EXPECT_EQ(check_us->count(), samples_before + 1);
  EXPECT_EQ(QueryProfiler::Default().TakeSnapshot().checks,
            records_before + 1);
  EXPECT_EQ(prune_checks->value(), prune_checks_before + 1);
  EXPECT_EQ(pruned->value(), pruned_before + 1);
}

// Q is contained iff each disjunct of Q entails some disjunct of Q', so
// the UCQ front end runs one check per disjunct of Q: two here.
TEST_F(ChaseTest, UcqContainmentCountsOneCheckPerDisjunct) {
  Counter* checks =
      MetricsRegistry::Default().GetCounter("containment.checks");
  const uint64_t checks_before = checks->value();
  const uint64_t records_before =
      QueryProfiler::Default().TakeSnapshot().checks;

  ConstraintSet cs;
  cs.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                       std::vector<Atom>{Atom(s_, {y_, x_})});
  UnionQuery q({ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})}),
                ConjunctiveQuery::Boolean({Atom(r_, {b_, c_})})});
  UnionQuery q_prime({ConjunctiveQuery::Boolean({Atom(s_, {x_, y_})})});
  EXPECT_EQ(CheckUcqContainment(q, q_prime, cs, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(checks->value(), checks_before + 2);
  EXPECT_EQ(QueryProfiler::Default().TakeSnapshot().checks,
            records_before + 2);
}

// The generic, linear and UCQ front ends run the same tiers in the same
// order. Each problem below is decided by the tier its row names: the
// signature prefilter (T is not reachable), the witness-reuse
// countermodel (the chase of the R/S cycle is infinite but never makes
// S(x,x)), or the engine's own tier. Every call counts one check, one
// pruned check and one profiler record, and moves at most the hit
// counter of the tier that decided it.
TEST_F(ChaseTest, FrontEndsShareOneTierSequence) {
  enum class Tier { kPrefilter, kCountermodel, kEngine };
  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter* checks = registry.GetCounter("containment.checks");
  Counter* prune_checks = registry.GetCounter("containment.prune.checks");
  Counter* prefilter_hits =
      registry.GetCounter("containment.prune.prefilter_hits");
  Counter* countermodel_hits =
      registry.GetCounter("containment.prune.countermodel_hits");
  auto expect_decided_by = [&](const std::string& label, Tier tier,
                               ContainmentVerdict verdict,
                               const std::function<ContainmentOutcome()>& run) {
    SCOPED_TRACE(label);
    const uint64_t checks_before = checks->value();
    const uint64_t prune_before = prune_checks->value();
    const uint64_t prefilter_before = prefilter_hits->value();
    const uint64_t countermodel_before = countermodel_hits->value();
    const uint64_t records_before =
        QueryProfiler::Default().TakeSnapshot().checks;
    EXPECT_EQ(run().verdict, verdict);
    EXPECT_EQ(checks->value(), checks_before + 1);
    EXPECT_EQ(prune_checks->value(), prune_before + 1);
    EXPECT_EQ(prefilter_hits->value() - prefilter_before,
              tier == Tier::kPrefilter ? 1u : 0u);
    EXPECT_EQ(countermodel_hits->value() - countermodel_before,
              tier == Tier::kCountermodel ? 1u : 0u);
    EXPECT_EQ(QueryProfiler::Default().TakeSnapshot().checks,
              records_before + 1);
  };

  auto tgd = [](const Atom& body, const Atom& head) {
    return Tgd(std::vector<Atom>{body}, std::vector<Atom>{head});
  };
  ConstraintSet to_s;  // R(x,y) → ∃z S(y,z)
  to_s.tgds.push_back(tgd(Atom(r_, {x_, y_}), Atom(s_, {y_, z_})));
  ConstraintSet cycle = to_s;  // plus S(x,y) → ∃z R(y,z)
  cycle.tgds.push_back(tgd(Atom(s_, {x_, y_}), Atom(r_, {y_, z_})));
  ConstraintSet swap;  // R(x,y) → S(y,x)
  swap.tgds.push_back(tgd(Atom(r_, {x_, y_}), Atom(s_, {y_, x_})));

  struct Row {
    std::string name;
    Tier tier;
    const ConstraintSet* sigma;
    ConjunctiveQuery goal;
    ContainmentVerdict verdict;
  };
  const std::vector<Row> rows = {
      {"prefilter", Tier::kPrefilter, &to_s,
       ConjunctiveQuery::Boolean({Atom(t_, {x_})}),
       ContainmentVerdict::kNotContained},
      {"countermodel", Tier::kCountermodel, &cycle,
       ConjunctiveQuery::Boolean({Atom(s_, {x_, x_})}),
       ContainmentVerdict::kNotContained},
      {"engine", Tier::kEngine, &swap,
       ConjunctiveQuery::Boolean({Atom(s_, {b_, a_})}),
       ContainmentVerdict::kContained},
  };
  const ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {a_, b_})});
  for (const Row& row : rows) {
    const ConstraintSet& sigma = *row.sigma;
    expect_decided_by("generic " + row.name, row.tier, row.verdict, [&] {
      return CheckContainment(q, row.goal, sigma, &universe_);
    });
    expect_decided_by("linear " + row.name, row.tier, row.verdict, [&] {
      return CheckLinearContainment(
          q, row.goal, sigma.tgds, &universe_,
          JohnsonKlugDepthBound(1, sigma.tgds.size(), 0, 2, 1));
    });
    expect_decided_by("ucq " + row.name, row.tier, row.verdict, [&] {
      return CheckUcqContainment(UnionQuery({q}), UnionQuery({row.goal}),
                                 sigma, &universe_);
    });
  }

  // With an FD in Σ neither refutation tier may run: a conflict would make
  // the containment vacuously true. The chase decides the prefilter row.
  ConstraintSet with_fd = to_s;
  with_fd.fds.emplace_back(s_, std::vector<uint32_t>{0}, 1);
  expect_decided_by("generic with an FD", Tier::kEngine,
                    ContainmentVerdict::kNotContained, [&] {
                      return CheckContainment(
                          q, ConjunctiveQuery::Boolean({Atom(t_, {x_})}),
                          with_fd, &universe_);
                    });
}

TEST_F(ChaseTest, JohnsonKlugBoundPositive) {
  EXPECT_GT(JohnsonKlugDepthBound(0, 0, 0, 0, 0), 0u);
  EXPECT_GE(JohnsonKlugDepthBound(3, 10, 5, 3, 2),
            JohnsonKlugDepthBound(1, 10, 5, 3, 2));
}

}  // namespace
}  // namespace rbda
