// Pins the Johnson–Klug tier — the engine's frontier rounds on linear
// TGDs — and the incremental goal matcher: every case asserts the verdict
// and the work counters (rounds, facts, goal checks, firings) of the
// restricted chase on it, so a change that alters the chase shows up
// here.
#include <string>

#include "chase/chase.h"
#include "chase/containment.h"
#include "core/answerability.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

struct Expected {
  ContainmentVerdict verdict;
  uint64_t rounds;
  size_t facts;
  uint64_t goal_checks;
  uint64_t tgd_steps;
};

void ExpectRun(const ContainmentOutcome& o, const Expected& e) {
  EXPECT_EQ(o.verdict, e.verdict);
  EXPECT_EQ(o.chase.status, ChaseStatus::kCompleted);
  EXPECT_EQ(o.chase.rounds, e.rounds);
  EXPECT_EQ(o.chase.instance.NumFacts(), e.facts);
  EXPECT_EQ(o.chase.goal_checks, e.goal_checks);
  EXPECT_EQ(o.chase.tgd_steps, e.tgd_steps);
}

class LinearChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *u_.AddRelation("R", 3);
    s_ = *u_.AddRelation("S", 2);
    t_ = *u_.AddRelation("T", 4);
    p_ = *u_.AddRelation("P", 1);
    v_ = *u_.AddRelation("V", 2);
    w_ = *u_.AddRelation("W", 2);
    x_ = u_.Variable("x");
    y_ = u_.Variable("y");
    z_ = u_.Variable("z");
    q_ = u_.Variable("q");
    a_ = u_.Constant("a");
    b_ = u_.Constant("b");
    c_ = u_.Constant("c");
    d_ = u_.Constant("d");
  }

  // The engine tier itself: no pruning tiers in front of it.
  ContainmentOutcome Linear(const Instance& start,
                            const std::vector<Atom>& goal,
                            const std::vector<Tgd>& tgds,
                            uint64_t max_depth = 50) {
    ChaseOptions options;
    options.prune_to_goal = false;
    return CheckLinearContainmentFrom(start, goal, tgds, &u_, max_depth,
                                      500000, options);
  }

  // P -> S -> V -> W, one level per TGD.
  std::vector<Tgd> Chain() const {
    std::vector<Tgd> tgds;
    tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                      std::vector<Atom>{Atom(s_, {x_, y_})});
    tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                      std::vector<Atom>{Atom(v_, {y_, z_})});
    tgds.emplace_back(std::vector<Atom>{Atom(v_, {x_, y_})},
                      std::vector<Atom>{Atom(w_, {y_, z_})});
    return tgds;
  }

  Universe u_;
  RelationId r_, s_, t_, p_, v_, w_;
  Term x_, y_, z_, q_, a_, b_, c_, d_;
};

TEST_F(LinearChaseTest, BodyWithRepeatedVariableAndConstant) {
  // R(x, x, c) -> S(x, y);  S(x, y) -> P(y).
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, x_, c_})},
                    std::vector<Atom>{Atom(s_, {x_, y_})});
  tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                    std::vector<Atom>{Atom(p_, {y_})});
  Instance start;
  start.AddFact(r_, {a_, a_, c_});
  start.AddFact(r_, {a_, b_, c_});  // x, x does not unify
  start.AddFact(r_, {b_, b_, d_});  // constant c does not unify
  start.AddFact(r_, {d_, d_, c_});
  ExpectRun(Linear(start, {Atom(s_, {d_, z_}), Atom(p_, {z_})}, tgds),
            {ContainmentVerdict::kContained, 2, 8, 3, 4});
  ExpectRun(Linear(start, {Atom(s_, {b_, z_})}, tgds),
            {ContainmentVerdict::kNotContained, 3, 8, 4, 4});
}

TEST_F(LinearChaseTest, HeadWithConstantAndRepeatedExistential) {
  // P(x) -> T(x, z, z, c);  T(x, y, y, q) -> V(x, y).
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                    std::vector<Atom>{Atom(t_, {x_, z_, z_, c_})});
  tgds.emplace_back(std::vector<Atom>{Atom(t_, {x_, y_, y_, q_})},
                    std::vector<Atom>{Atom(v_, {x_, y_})});
  Instance start;
  start.AddFact(p_, {a_});
  start.AddFact(p_, {b_});
  start.AddFact(p_, {d_});
  start.AddFact(t_, {b_, d_, d_, c_});  // witness for P(b): not active
  start.AddFact(t_, {a_, b_, d_, c_});  // z, z disagree: P(a) fires
  start.AddFact(t_, {d_, b_, b_, a_});  // constant c disagrees: P(d) fires
  ContainmentOutcome yes = Linear(
      start, {Atom(v_, {a_, x_}), Atom(v_, {b_, d_}), Atom(v_, {d_, y_})},
      tgds);
  ExpectRun(yes, {ContainmentVerdict::kContained, 2, 12, 3, 6});
  // The fired witness repeats one fresh null: T(a, n, n, c).
  bool repeated_null = false;
  for (FactRef f : yes.chase.instance.FactsOf(t_)) {
    if (f.arg(0) == a_ && f.arg(1).IsNull() && f.arg(1) == f.arg(2) &&
        f.arg(3) == c_) {
      repeated_null = true;
    }
  }
  EXPECT_TRUE(repeated_null);
  ExpectRun(Linear(start, {Atom(v_, {b_, b_})}, tgds),
            {ContainmentVerdict::kNotContained, 3, 12, 4, 6});
}

TEST_F(LinearChaseTest, ExistentialNullsMintedInVariableOrder) {
  // P(x) -> T(x, z, y, c): y sorts before z, so y gets the first null
  // even though z occurs first in the head.
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                    std::vector<Atom>{Atom(t_, {x_, z_, y_, c_})});
  ASSERT_LT(y_, z_);
  Instance start;
  start.AddFact(p_, {a_});
  ContainmentOutcome out = Linear(start, {Atom(v_, {x_, y_})}, tgds);
  ExpectRun(out, {ContainmentVerdict::kNotContained, 2, 2, 3, 1});
  FactRange t = out.chase.instance.FactsOf(t_);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t[0].arg(1).IsNull() && t[0].arg(2).IsNull());
  EXPECT_LT(t[0].arg(2), t[0].arg(1));
}

TEST_F(LinearChaseTest, DisconnectedGoalComponentsMatchAtDifferentDepths) {
  Instance start;
  start.AddFact(p_, {a_});
  // S(x, y) matches at depth 1, W(z, q) at depth 3.
  ExpectRun(Linear(start, {Atom(s_, {x_, y_}), Atom(w_, {z_, q_})}, Chain()),
            {ContainmentVerdict::kContained, 3, 4, 4, 3});
  // P(x) matches at depth 0; V(q, q) never does, and the chase terminates.
  ExpectRun(Linear(start, {Atom(p_, {x_}), Atom(v_, {q_, q_})}, Chain()),
            {ContainmentVerdict::kNotContained, 4, 4, 5, 3});
}

TEST_F(LinearChaseTest, GroundGoalAtomAndEmptyGoal) {
  // P(x) -> S(x, b);  S(x, y) -> V(y, x).
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                    std::vector<Atom>{Atom(s_, {x_, b_})});
  tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                    std::vector<Atom>{Atom(v_, {y_, x_})});
  Instance start;
  start.AddFact(p_, {a_});
  ExpectRun(Linear(start, {Atom(v_, {b_, a_}), Atom(p_, {x_})}, tgds),
            {ContainmentVerdict::kContained, 2, 3, 3, 2});
  ExpectRun(Linear(start, {Atom(v_, {a_, b_})}, tgds),
            {ContainmentVerdict::kNotContained, 3, 3, 4, 2});
  ExpectRun(Linear(start, {}, tgds),
            {ContainmentVerdict::kContained, 0, 1, 1, 0});
}

TEST_F(LinearChaseTest, UcqGoalSurvivesFdMergeAfterComponentMatched) {
  Universe u;
  RelationId a = *u.AddRelation("A", 1);
  RelationId c = *u.AddRelation("C", 1);
  RelationId k = *u.AddRelation("K", 1);
  RelationId d = *u.AddRelation("D", 3);
  RelationId g = *u.AddRelation("G", 1);
  RelationId h = *u.AddRelation("H", 1);
  RelationId z = *u.AddRelation("Z", 1);
  Term x = u.Variable("x"), y = u.Variable("y"), w = u.Variable("w");
  Term v = u.Variable("v"), n = u.Variable("n");
  Term ka = u.Constant("a"), kc = u.Constant("c");
  ConstraintSet sigma;
  // Round 1 creates D(a, n1, a) and K(a); round 2 creates D(a, n2, c),
  // and the FD D: 0 -> 1 then merges n2 into n1.
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(k, {x})},
                          std::vector<Atom>{Atom(d, {x, y, kc})});
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(c, {x})},
                          std::vector<Atom>{Atom(d, {x, y, x})});
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(c, {x})},
                          std::vector<Atom>{Atom(k, {x})});
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(d, {x, y, x})},
                          std::vector<Atom>{Atom(g, {y})});
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(d, {x, y, kc})},
                          std::vector<Atom>{Atom(h, {y})});
  sigma.fds.emplace_back(d, std::vector<uint32_t>{0}, 1);
  Instance start;
  start.AddFact(a, {ka});
  start.AddFact(c, {ka});
  // The second disjunct's first component, D(x, w, x) & G(w), matches in
  // round 1; its second, H(v) & G(v), only after the round-2 merge.
  std::vector<std::vector<Atom>> goals{
      {Atom(z, {n})},
      {Atom(d, {x, w, x}), Atom(g, {w}), Atom(h, {v}), Atom(g, {v})}};
  for (bool semi_naive : {true, false}) {
    ChaseOptions options;
    options.use_semi_naive = semi_naive;
    bool reached = false;
    ChaseResult result =
        RunChaseUntilAny(start, sigma.tgds, sigma.fds, goals, &u, &reached,
                         options);
    EXPECT_TRUE(reached) << semi_naive;
    EXPECT_EQ(result.status, ChaseStatus::kCompleted);
    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(result.instance.NumFacts(), 7u);
    EXPECT_EQ(result.goal_checks, 6u);  // both disjuncts, rounds 0-2
    EXPECT_EQ(result.tgd_steps, 5u);
    EXPECT_EQ(result.egd_merges, 1u);
  }
}

TEST_F(LinearChaseTest, GoalMatcherKeepsMatchedComponents) {
  // Components: {S(x, y), V(y, z)}, {P(q)}, {W(a, b)}.
  std::vector<Atom> goal{Atom(s_, {x_, y_}), Atom(p_, {q_}),
                         Atom(v_, {y_, z_}), Atom(w_, {a_, b_})};
  GoalMatcher matcher(goal);
  GoalMatcher stale(goal, /*inject_stale_for_testing=*/true);
  Instance inst;
  inst.AddFact(p_, {c_});
  EXPECT_FALSE(matcher.Holds(inst, nullptr));
  EXPECT_FALSE(stale.Holds(inst, nullptr));
  // S and V join only through y: two separate rows do not match.
  Instance::DeltaMark mark = inst.Mark();
  inst.AddFact(s_, {a_, b_});
  inst.AddFact(v_, {c_, d_});
  EXPECT_FALSE(matcher.Holds(inst, &mark));
  EXPECT_FALSE(stale.Holds(inst, &mark));
  mark = inst.Mark();
  inst.AddFact(v_, {b_, d_});
  EXPECT_FALSE(matcher.Holds(inst, &mark));  // W(a, b) still missing
  EXPECT_FALSE(stale.Holds(inst, &mark));
  // The last component arrives alone in the delta: the matched ones are
  // not searched again, so the delta-only check still finds the goal.
  mark = inst.Mark();
  inst.AddFact(w_, {a_, b_});
  EXPECT_TRUE(matcher.Holds(inst, &mark));
  EXPECT_FALSE(stale.Holds(inst, &mark));  // the injected bug misses it
  EXPECT_TRUE(GoalMatcher(std::vector<Atom>{}).Holds(inst, nullptr));
}

// ---- The depth cap: a stopped chase is not a terminated one. ----

TEST_F(LinearChaseTest, DepthCapReportsRoundsBudget) {
  Counter* exhausted_rounds =
      MetricsRegistry::Default().GetCounter("chase.exhausted.rounds");
  const uint64_t before = exhausted_rounds->value();
  Instance start;
  start.AddFact(p_, {a_});
  // W first appears at depth 3; two levels leave a non-empty frontier.
  ContainmentOutcome capped =
      Linear(start, {Atom(w_, {z_, q_})}, Chain(), /*max_depth=*/2);
  EXPECT_EQ(capped.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(capped.chase.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(capped.chase.exhausted, ChaseExhausted::kRounds);
  EXPECT_EQ(capped.chase.rounds, 2u);
  EXPECT_EQ(exhausted_rounds->value(), before + 1);
  // A frontier that empties at the cap is a terminated chase.
  ContainmentOutcome done =
      Linear(start, {Atom(s_, {a_, a_})}, Chain(), /*max_depth=*/4);
  EXPECT_EQ(done.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(done.chase.status, ChaseStatus::kCompleted);
  EXPECT_EQ(done.chase.exhausted, ChaseExhausted::kNone);
  EXPECT_EQ(done.chase.rounds, 4u);
  EXPECT_EQ(exhausted_rounds->value(), before + 1);
}

// The fact budget stops a linear check inside a round, at the firing that
// crosses it, as it stops any other chase: 40 P facts each need an S
// witness, and the 11th firing makes 51 facts. Testing the budget only
// after a whole depth ended at 80.
TEST_F(LinearChaseTest, FactBudgetStopsInsideARound) {
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                    std::vector<Atom>{Atom(s_, {x_, y_})});
  Instance start;
  for (int i = 0; i < 40; ++i) {
    start.AddFact(p_, {u_.Constant("k" + std::to_string(i))});
  }
  ChaseOptions options;
  options.prune_to_goal = false;
  ContainmentOutcome out = CheckLinearContainmentFrom(
      start, {Atom(v_, {x_, y_})}, tgds, &u_, /*max_depth=*/50,
      /*max_facts=*/50, options);
  EXPECT_EQ(out.verdict, ContainmentVerdict::kUnknown);
  EXPECT_EQ(out.chase.status, ChaseStatus::kBudgetExceeded);
  EXPECT_EQ(out.chase.exhausted, ChaseExhausted::kFacts);
  EXPECT_LE(out.chase.instance.NumFacts(), 51u);
}

// Without use_semi_naive a frontier round goes through every fact so far,
// in the semi-naive run's order, so it fires the same triggers. On this Σ
// the order decides termination: round 2 meets R(a, n1) before U(a, a),
// mints T(a, n2) and starts an endless T chain, one null per round. A
// frontier of every fact grouped by relation meets U(a, a) first, and
// T(a, a) then witnesses R(a, n1), so that chase would end in round 3.
TEST(LinearFrontierTest, NaiveFrontierFiresTheSemiNaiveTriggers) {
  auto run = [](bool semi_naive) {
    Universe u;
    RelationId p = *u.AddRelation("P", 2);
    RelationId r = *u.AddRelation("R", 2);
    RelationId un = *u.AddRelation("U", 2);
    RelationId t = *u.AddRelation("T", 2);
    RelationId g = *u.AddRelation("G", 1);
    Term x = u.Variable("x"), y = u.Variable("y"), z = u.Variable("z");
    std::vector<Tgd> tgds;
    auto add = [&tgds](Atom body, Atom head) {
      tgds.emplace_back(std::vector<Atom>{body}, std::vector<Atom>{head});
    };
    add(Atom(p, {x, y}), Atom(r, {x, z}));   // P(x, y) → ∃z R(x, z)
    add(Atom(p, {x, y}), Atom(un, {x, y}));  // P(x, y) → U(x, y)
    add(Atom(r, {x, y}), Atom(t, {x, z}));   // R(x, y) → ∃z T(x, z)
    add(Atom(un, {x, y}), Atom(t, {x, y}));  // U(x, y) → T(x, y)
    add(Atom(t, {x, y}), Atom(t, {y, z}));   // T(x, y) → ∃z T(y, z)
    Instance start;
    start.AddFact(p, {u.Constant("a"), u.Constant("a")});
    start.AddFact(un, {u.Constant("c"), u.Constant("c")});
    const std::vector<std::vector<Atom>> goals{{Atom(g, {x})}};
    ChaseOptions options;
    options.use_semi_naive = semi_naive;
    options.max_rounds = 8;
    bool reached = true;
    ChaseResult result =
        RunFrontierChaseUntilAny(start, tgds, goals, &u, &reached, options);
    EXPECT_FALSE(reached);
    EXPECT_EQ(result.status, ChaseStatus::kBudgetExceeded) << semi_naive;
    EXPECT_EQ(result.exhausted, ChaseExhausted::kRounds) << semi_naive;
    EXPECT_EQ(result.rounds, 8u);
    EXPECT_EQ(result.tgd_steps, 11u) << semi_naive;
    return result.instance.ToString(u);
  };
  const std::string semi = run(true);
  EXPECT_EQ(run(false), semi);
}

// A linear check that reaches the engine tier is one chase run, and its
// rounds are chase rounds; a check the countermodel refutes runs no chase.
TEST_F(LinearChaseTest, EngineTierCountsAsAChaseRun) {
  MetricsRegistry& r = MetricsRegistry::Default();
  Counter* runs = r.GetCounter("chase.runs");
  Counter* rounds = r.GetCounter("chase.rounds");
  Counter* countermodel = r.GetCounter("containment.prune.countermodel_hits");
  Instance start;
  start.AddFact(p_, {a_});

  uint64_t runs_before = runs->value();
  uint64_t rounds_before = rounds->value();
  ContainmentOutcome chased = Linear(start, {Atom(w_, {z_, q_})}, Chain());
  EXPECT_EQ(chased.verdict, ContainmentVerdict::kContained);
  EXPECT_EQ(chased.chase.rounds, 3u);
  EXPECT_EQ(runs->value(), runs_before + 1);
  EXPECT_EQ(rounds->value(), rounds_before + 3);

  // Goal-directed: S(b, y) is signature-reachable, but the finite model
  // of P(a) under the chain has no S fact with b.
  runs_before = runs->value();
  const uint64_t refuted_before = countermodel->value();
  ContainmentOutcome refuted = CheckLinearContainmentFrom(
      start, {Atom(s_, {b_, y_})}, Chain(), &u_, /*max_depth=*/50);
  EXPECT_EQ(refuted.verdict, ContainmentVerdict::kNotContained);
  EXPECT_EQ(countermodel->value(), refuted_before + 1);
  EXPECT_EQ(runs->value(), runs_before);
}

// Cyclic IDs: the linearized chase never terminates, so only the JK bound
// can make a kNotContained verdict definite.
constexpr const char* kCyclicIds = R"(
relation R(a, b)
relation S(a, b)
method mr on R inputs(0)
method ms on S inputs()
tgd R(x, y) -> S(y, z)
tgd S(x, y) -> R(y, z)
query Q() :- R(x, y)
)";

Decision DecideWithCap(const std::string& text, uint64_t cap) {
  Universe u;
  ParsedDocument doc = MustParse(text.c_str(), &u);
  DecisionOptions options;
  options.chase.prune_to_goal = false;  // no countermodel shortcut
  options.linear_depth_cap = cap;
  StatusOr<Decision> d = DecideMonotoneAnswerability(
      doc.schema, ConjunctiveQuery::Boolean(doc.queries.at("Q").atoms()),
      options);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return d.ok() ? *d : Decision{};
}

TEST(LinearDepthCapTest, CapBelowJkBoundIsIncomplete) {
  // The goal first matches at depth 3: a cap of 2 stops the chase first.
  Decision full = DecideWithCap(kCyclicIds, 100000);
  ASSERT_GT(full.depth_bound, 3u);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.verdict, Answerability::kAnswerable);
  EXPECT_EQ(full.chase_rounds, 3u);

  Decision capped = DecideWithCap(kCyclicIds, 2);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.verdict, Answerability::kUnknown);
  EXPECT_EQ(capped.exhausted, ChaseExhausted::kRounds);
  EXPECT_EQ(capped.chase_rounds, 2u);

  Decision at_bound = DecideWithCap(kCyclicIds, full.depth_bound);
  EXPECT_TRUE(at_bound.complete);
  EXPECT_EQ(at_bound.verdict, Answerability::kAnswerable);
}

TEST(LinearDepthCapTest, CapAtJkBoundDecidesNonAnswerable) {
  // Without the input-free method nothing is answerable, and the chase
  // still never terminates.
  std::string text = kCyclicIds;
  const std::string ms = "method ms on S inputs()\n";
  text.erase(text.find(ms), ms.size());
  Decision full = DecideWithCap(text, 100000);
  ASSERT_GT(full.depth_bound, 2u);

  Decision capped = DecideWithCap(text, 2);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.verdict, Answerability::kUnknown);
  EXPECT_EQ(capped.exhausted, ChaseExhausted::kRounds);

  Decision at_bound = DecideWithCap(text, full.depth_bound);
  EXPECT_TRUE(at_bound.complete);
  EXPECT_EQ(at_bound.verdict, Answerability::kNotAnswerable);
  EXPECT_EQ(at_bound.chase_rounds, full.depth_bound);
  EXPECT_EQ(at_bound.exhausted, ChaseExhausted::kNone);
}

}  // namespace
}  // namespace rbda
