// Unit tests for the goal-directed relevance analysis (chase/relevance.h):
// backward reachability over TGD / FD / cardinality-rule graphs, the
// forward relation-signature closure the containment prefilter uses, the
// overprune fault injection and the witness-reuse countermodel. The
// soundness obligations these pin down are the ones the goal-pruned-vs-full
// fuzz checker cross-validates at scale.
#include "chase/relevance.h"

#include <string>
#include <vector>

#include "chase/chase.h"
#include "gtest/gtest.h"

namespace rbda {
namespace {

class RelevanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 2);
    t_ = *universe_.AddRelation("T", 1);
    u_ = *universe_.AddRelation("U", 2);
    acc_ = *universe_.AddRelation("accessible", 1);
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
  }

  size_t NumRelations() const { return universe_.NumRelations(); }

  Tgd MakeTgd(RelationId body, RelationId head) {
    std::vector<Term> args{x_, y_};
    std::vector<Term> head_args =
        universe_.Arity(head) == 1 ? std::vector<Term>{y_} : args;
    std::vector<Term> body_args =
        universe_.Arity(body) == 1 ? std::vector<Term>{x_} : args;
    return Tgd(std::vector<Atom>{Atom(body, body_args)},
               std::vector<Atom>{Atom(head, head_args)});
  }

  Universe universe_;
  RelationId r_, s_, t_, u_, acc_;
  Term x_, y_;
};

// Backward reachability over a TGD chain R → S → T: goal T pulls in the
// whole chain; goal S prunes the S → T rule and leaves T irrelevant.
TEST_F(RelevanceTest, TgdChainBackwardReachability) {
  ConstraintSet cs;
  cs.tgds.push_back(MakeTgd(r_, s_));
  cs.tgds.push_back(MakeTgd(s_, t_));

  RelevanceResult all = ComputeRelevance({{Atom(t_, {x_})}}, cs.tgds,
                                         cs.fds, {}, NumRelations());
  EXPECT_TRUE(RelationIsRelevant(r_, all.relevant_relations));
  EXPECT_TRUE(RelationIsRelevant(s_, all.relevant_relations));
  EXPECT_TRUE(RelationIsRelevant(t_, all.relevant_relations));
  EXPECT_EQ(all.relevant_tgds, 2u);
  EXPECT_EQ(all.PrunedConstraints(), 0u);

  RelevanceResult mid = ComputeRelevance({{Atom(s_, {x_, y_})}}, cs.tgds,
                                         cs.fds, {}, NumRelations());
  EXPECT_TRUE(RelationIsRelevant(r_, mid.relevant_relations));
  EXPECT_TRUE(RelationIsRelevant(s_, mid.relevant_relations));
  EXPECT_FALSE(RelationIsRelevant(t_, mid.relevant_relations));
  EXPECT_EQ(mid.pruned_tgds, 1u);
  EXPECT_EQ(mid.PrunedConstraints(), 1u);
}

// A disconnected component (U → U) never becomes relevant, and a TGD is
// kept as soon as ANY head relation is relevant (multi-head).
TEST_F(RelevanceTest, DisconnectedComponentPrunedMultiHeadKept) {
  ConstraintSet cs;
  cs.tgds.push_back(MakeTgd(u_, u_));  // self-loop, unrelated to the goal
  // R(x,y) → T(y) ∧ U(x,y): relevant via the T head alone.
  cs.tgds.emplace_back(
      std::vector<Atom>{Atom(r_, {x_, y_})},
      std::vector<Atom>{Atom(t_, {y_}), Atom(u_, {x_, y_})});

  RelevanceResult res = ComputeRelevance({{Atom(t_, {x_})}}, cs.tgds,
                                         cs.fds, {}, NumRelations());
  EXPECT_TRUE(RelationIsRelevant(r_, res.relevant_relations));
  EXPECT_TRUE(TgdIsRelevant(cs.tgds[1], res.relevant_relations));
  EXPECT_FALSE(TgdIsRelevant(cs.tgds[0], res.relevant_relations));
  EXPECT_EQ(res.pruned_tgds, 1u);
}

// FD relations seed the closure unconditionally: an FD conflict anywhere
// makes the containment vacuously true (kFdConflict → kContained), so
// every derivation into an FD relation must survive pruning.
TEST_F(RelevanceTest, FdRelationsSeedTheClosure) {
  ConstraintSet cs;
  cs.tgds.push_back(MakeTgd(r_, u_));  // feeds the FD relation, not the goal
  cs.fds.emplace_back(u_, std::vector<uint32_t>{0}, 1);

  RelevanceResult res = ComputeRelevance({{Atom(t_, {x_})}}, cs.tgds,
                                         cs.fds, {}, NumRelations());
  EXPECT_TRUE(RelationIsRelevant(u_, res.relevant_relations));
  EXPECT_TRUE(RelationIsRelevant(r_, res.relevant_relations));
  EXPECT_EQ(res.pruned_tgds, 0u);
}

// Cardinality rules: a rule is kept iff its target is relevant, and a kept
// rule marks its source (and, for conditional rules, the accessible
// relation) backward-relevant.
TEST_F(RelevanceTest, CardinalityRuleBackwardReachability) {
  CardinalityRule rule;
  rule.source_rel = r_;
  rule.input_positions = {0};
  rule.target_rel = t_;
  rule.accessible_rel = acc_;
  rule.bound = 3;

  RelevanceResult hit =
      ComputeRelevance({{Atom(t_, {x_})}}, {}, {}, {rule}, NumRelations());
  EXPECT_TRUE(RelationIsRelevant(r_, hit.relevant_relations));
  EXPECT_TRUE(RelationIsRelevant(acc_, hit.relevant_relations));
  EXPECT_EQ(hit.relevant_rules, 1u);

  RelevanceResult miss = ComputeRelevance({{Atom(s_, {x_, y_})}}, {}, {},
                                          {rule}, NumRelations());
  EXPECT_FALSE(RelationIsRelevant(r_, miss.relevant_relations));
  EXPECT_EQ(miss.pruned_rules, 1u);
  EXPECT_EQ(miss.PrunedConstraints(), 1u);
}

// Forward signature closure: the goal relation must be producible from the
// start instance's relations through the kept constraints.
TEST_F(RelevanceTest, SignatureClosurePropagatesThroughTgds) {
  std::vector<Tgd> tgds{MakeTgd(r_, s_), MakeTgd(s_, t_)};
  RelevanceResult rel = ComputeRelevance(
      {{Atom(t_, {x_})}}, tgds, {}, {}, NumRelations());

  Instance start;
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  start.AddFact(r_, {a, b});
  EXPECT_TRUE(GoalWithinSignature(
      {Atom(t_, {x_})},
      SignatureClosure(start, tgds, {}, rel.relevant_relations)));

  Instance only_u;
  only_u.AddFact(u_, {a, b});
  EXPECT_FALSE(GoalWithinSignature(
      {Atom(t_, {x_})},
      SignatureClosure(only_u, tgds, {}, rel.relevant_relations)));
}

// Regression (the kUniversityBounded Q2 soundness bug): a cardinality rule
// with NO input positions has a vacuous accessibility precondition — it
// fires from its source relation alone, so the signature closure must not
// demand an accessible fact. A rule WITH inputs still requires one.
TEST_F(RelevanceTest, EmptyInputRuleBootstrapsSignatureClosure) {
  CardinalityRule no_inputs;
  no_inputs.source_rel = r_;
  no_inputs.target_rel = t_;
  no_inputs.accessible_rel = acc_;
  no_inputs.bound = 100;
  // input_positions left empty; require_accessible stays true.

  RelevanceResult rel = ComputeRelevance(
      {{Atom(t_, {x_})}}, {}, {}, {no_inputs}, NumRelations());

  Instance start;  // R fact, no accessible facts anywhere
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  start.AddFact(r_, {a, b});
  EXPECT_TRUE(GoalWithinSignature(
      {Atom(t_, {x_})},
      SignatureClosure(start, {}, {no_inputs}, rel.relevant_relations)));

  CardinalityRule with_inputs = no_inputs;
  with_inputs.input_positions = {0};
  RelevanceResult rel2 = ComputeRelevance(
      {{Atom(t_, {x_})}}, {}, {}, {with_inputs}, NumRelations());
  EXPECT_FALSE(GoalWithinSignature(
      {Atom(t_, {x_})},
      SignatureClosure(start, {}, {with_inputs}, rel2.relevant_relations)));

  start.AddFact(acc_, {a});
  EXPECT_TRUE(GoalWithinSignature(
      {Atom(t_, {x_})},
      SignatureClosure(start, {}, {with_inputs}, rel2.relevant_relations)));
}

// Goal atoms whose relation the start can never produce fall outside the
// closure; goal relations already present in the start are trivially in.
TEST_F(RelevanceTest, GoalWithinSignatureBasics) {
  std::vector<bool> closure(NumRelations(), false);
  closure[r_] = true;
  EXPECT_TRUE(GoalWithinSignature({Atom(r_, {x_, y_})}, closure));
  EXPECT_FALSE(
      GoalWithinSignature({Atom(r_, {x_, y_}), Atom(t_, {x_})}, closure));
  EXPECT_TRUE(GoalWithinSignature({}, closure));  // vacuous
}

// The overprune injection drops exactly one relevant relation, and never a
// seed (goal or FD relation) — dropping those would fail trivially rather
// than exercising the checker's subtle-bug path.
TEST_F(RelevanceTest, OverpruneInjectionDropsOneNonSeedRelation) {
  ConstraintSet cs;
  cs.tgds.push_back(MakeTgd(r_, s_));
  cs.tgds.push_back(MakeTgd(s_, t_));

  RelevanceResult clean = ComputeRelevance({{Atom(t_, {x_})}}, cs.tgds,
                                           cs.fds, {}, NumRelations());
  RelevanceResult injected = ComputeRelevance(
      {{Atom(t_, {x_})}}, cs.tgds, cs.fds, {}, NumRelations(),
      /*inject_overprune_for_testing=*/true);

  size_t clean_count = 0, injected_count = 0;
  for (bool b : clean.relevant_relations) clean_count += b ? 1 : 0;
  for (bool b : injected.relevant_relations) injected_count += b ? 1 : 0;
  EXPECT_EQ(injected_count + 1, clean_count);
  EXPECT_TRUE(RelationIsRelevant(t_, injected.relevant_relations))
      << "the goal seed must never be injected away";
}

// The witness-reuse countermodel folds an INFINITE chase into a finite
// model: R(x,y) → ∃z S(y,z) and S(x,y) → ∃z R(y,z) cycle forever under
// the restricted chase, but with one fixed witness per rule the model
// closes after a handful of facts. A goal demanding a self-join S(x,x)
// fails in that model — certifying kNotContained no chase could reach —
// while the satisfiable goal S(x,y) correctly stays inconclusive.
TEST_F(RelevanceTest, CounterModelRefutesGoalOnInfiniteChase) {
  Term z = universe_.Variable("z");
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                    std::vector<Atom>{Atom(s_, {y_, z})});
  tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                    std::vector<Atom>{Atom(r_, {y_, z})});

  Instance start;
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  start.AddFact(r_, {a, b});

  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(s_, {x_, x_})}}, tgds,
                                       {}, &universe_));
  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(s_, {x_, y_})}}, tgds,
                                        {}, &universe_));
}

// Cardinality rules participate in the model: the rule's canonical target
// copies satisfy the lower bound, carry the binding at input positions,
// and get distinct witness rows per copy. A goal needing an equal pair in
// the target relation is refuted; a goal matching any target fact is not.
TEST_F(RelevanceTest, CounterModelHonorsCardinalityRules) {
  CardinalityRule rule;
  rule.source_rel = r_;
  rule.input_positions = {0};
  rule.target_rel = u_;
  rule.accessible_rel = acc_;
  rule.bound = 2;

  Instance start;
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  Term c = universe_.Constant("c");
  start.AddFact(r_, {a, b});
  start.AddFact(r_, {a, c});
  start.AddFact(acc_, {a});

  // U facts exist in the model (two copies for binding a), but none with
  // equal arguments: U(x,x) is refuted, U(x,y) is not.
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(u_, {x_, x_})}}, {},
                                       {rule}, &universe_));
  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(u_, {x_, y_})}}, {},
                                        {rule}, &universe_));
}

// An exhausted budget is inconclusive, never a refutation: with room for
// no derived facts the builder must give up rather than report a model.
TEST_F(RelevanceTest, CounterModelBudgetExhaustionIsInconclusive) {
  Term z = universe_.Variable("z");
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                    std::vector<Atom>{Atom(s_, {y_, z})});

  Instance start;
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  start.AddFact(r_, {a, b});

  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(t_, {x_})}}, tgds, {},
                                        &universe_, /*max_facts=*/1));
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(t_, {x_})}}, tgds, {},
                                       &universe_));
}

// A goal that already holds in the start holds in every model extending
// it, so the countermodel declines before minting a witness: with
// R(x,y) → ∃z S(y,z) and the goal R(x,y), z's witness is never made.
TEST_F(RelevanceTest, CounterModelDeclinesAGoalTheStartSatisfies) {
  Term z = universe_.Variable("z");
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                    std::vector<Atom>{Atom(s_, {y_, z})});
  Instance start;
  start.AddFact(r_, {universe_.Constant("a"), universe_.Constant("b")});

  const size_t nulls_before = universe_.NumNullsMinted();
  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(r_, {x_, y_})}}, tgds,
                                        {}, &universe_)
                   .has_value());
  EXPECT_EQ(universe_.NumNullsMinted(), nulls_before);
}

// Rounds are level-synchronous: a round matches bodies against the model
// as it stood when the round began, and adds what it derived only at the
// end. A chain R0 → R1 → … → Rk with its TGDs listed in chain order
// therefore takes one round per link plus the round that finds nothing
// new, even though one pass in TGD order could walk the whole chain.
TEST_F(RelevanceTest, CounterModelRoundsAreLevelSynchronous) {
  constexpr size_t kLinks = 4;
  std::vector<RelationId> chain;
  for (size_t i = 0; i <= kLinks; ++i) {
    chain.push_back(*universe_.AddRelation("C" + std::to_string(i), 1));
  }
  std::vector<Tgd> tgds;
  for (size_t i = 0; i < kLinks; ++i) {
    tgds.emplace_back(std::vector<Atom>{Atom(chain[i], {x_})},
                      std::vector<Atom>{Atom(chain[i + 1], {x_})});
  }
  Instance start;
  start.AddFact(chain[0], {universe_.Constant("a")});
  std::vector<std::vector<Atom>> goals{{Atom(t_, {x_})}};

  EXPECT_TRUE(CounterModelRefutesGoals(start, goals, tgds, {}, &universe_,
                                       /*max_facts=*/4096,
                                       /*max_rounds=*/kLinks + 1));
  EXPECT_FALSE(CounterModelRefutesGoals(start, goals, tgds, {}, &universe_,
                                        /*max_facts=*/4096,
                                        /*max_rounds=*/kLinks));
  // The last link is derived: a goal on it is not refuted.
  EXPECT_FALSE(CounterModelRefutesGoals(
      start, {{Atom(chain[kLinks], {x_})}}, tgds, {}, &universe_));
}

// A multi-atom body whose only match joins a start fact with a fact first
// derived in round 2: P → Q (round 1), Q → S (round 2), S ∧ T → V
// (round 3, with T from the start). Round 4 finds nothing new.
TEST_F(RelevanceTest, CounterModelJoinsStartFactWithDerivedFact) {
  RelationId p = *universe_.AddRelation("P", 1);
  RelationId q = *universe_.AddRelation("Q", 1);
  RelationId s1 = *universe_.AddRelation("S1", 1);
  RelationId v = *universe_.AddRelation("V", 1);
  std::vector<Tgd> tgds;
  // The join comes first in TGD order; it still waits for round 3.
  tgds.emplace_back(std::vector<Atom>{Atom(s1, {x_}), Atom(t_, {x_})},
                    std::vector<Atom>{Atom(v, {x_})});
  tgds.emplace_back(std::vector<Atom>{Atom(p, {x_})},
                    std::vector<Atom>{Atom(q, {x_})});
  tgds.emplace_back(std::vector<Atom>{Atom(q, {x_})},
                    std::vector<Atom>{Atom(s1, {x_})});
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  Instance start;
  start.AddFact(p, {a});
  start.AddFact(t_, {a});
  start.AddFact(t_, {b});  // no S1(b): joins nothing

  std::vector<std::vector<Atom>> refuted{{Atom(u_, {x_, y_})}};
  EXPECT_TRUE(CounterModelRefutesGoals(start, refuted, tgds, {}, &universe_,
                                       4096, /*max_rounds=*/4));
  EXPECT_FALSE(CounterModelRefutesGoals(start, refuted, tgds, {}, &universe_,
                                        4096, /*max_rounds=*/3));
  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(v, {a})}}, tgds, {},
                                        &universe_));
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(v, {b})}}, tgds, {},
                                       &universe_));
}

// Constants and repeated variables in a single-atom body and head:
// W(x, x, c) → X(x, z, z, d). Only W(a, a, c) matches the body, and its
// one witness row repeats the fixed null and carries the head constant.
TEST_F(RelevanceTest, CounterModelConstantsAndRepeatedVariables) {
  RelationId w = *universe_.AddRelation("W", 3);
  RelationId xr = *universe_.AddRelation("X", 4);
  Term z = universe_.Variable("z");
  Term q = universe_.Variable("q");
  Term a = universe_.Constant("a");
  Term b = universe_.Constant("b");
  Term c = universe_.Constant("c");
  Term d = universe_.Constant("d");
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(w, {x_, x_, c})},
                    std::vector<Atom>{Atom(xr, {x_, z, z, d})});
  Instance start;
  start.AddFact(w, {a, a, c});
  start.AddFact(w, {b, a, c});  // x, x does not unify
  start.AddFact(w, {b, b, d});  // constant c does not unify

  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(xr, {a, y_, y_, d})}},
                                        tgds, {}, &universe_));
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(xr, {b, y_, z, q})}},
                                       tgds, {}, &universe_));
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(xr, {x_, y_, z, c})}},
                                       tgds, {}, &universe_));
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(xr, {x_, x_, z, q})}},
                                       tgds, {}, &universe_));
}

// The parser never builds a TGD with an empty body, but the API takes
// one: → ∃z T(z) fires in round 1, and round 2 finds nothing new.
TEST_F(RelevanceTest, CounterModelEmptyBodyTgd) {
  Term z = universe_.Variable("z");
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{}, std::vector<Atom>{Atom(t_, {z})});
  Instance start;
  start.AddFact(r_, {universe_.Constant("a"), universe_.Constant("b")});

  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(t_, {x_})}}, tgds, {},
                                        &universe_));
  EXPECT_TRUE(CounterModelRefutesGoals(start, {{Atom(s_, {x_, y_})}}, tgds,
                                       {}, &universe_, 4096,
                                       /*max_rounds=*/2));
  EXPECT_FALSE(CounterModelRefutesGoals(start, {{Atom(s_, {x_, y_})}}, tgds,
                                        {}, &universe_, 4096,
                                        /*max_rounds=*/1));
}

}  // namespace
}  // namespace rbda
