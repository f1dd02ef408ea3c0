#include "logic/conjunctive_query.h"
#include "logic/homomorphism.h"

#include "gtest/gtest.h"

namespace rbda {
namespace {

class LogicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 1);
    a_ = universe_.Constant("a");
    b_ = universe_.Constant("b");
    c_ = universe_.Constant("c");
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
    z_ = universe_.Variable("z");
  }
  Universe universe_;
  RelationId r_, s_;
  Term a_, b_, c_, x_, y_, z_;
};

TEST_F(LogicTest, FindHomomorphismSimple) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  auto hom = FindHomomorphism({Atom(r_, {x_, y_})}, data);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(ApplyToTerm(*hom, x_), a_);
  EXPECT_EQ(ApplyToTerm(*hom, y_), b_);
}

TEST_F(LogicTest, HomomorphismRespectsConstants) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  EXPECT_TRUE(FindHomomorphism({Atom(r_, {a_, y_})}, data).has_value());
  EXPECT_FALSE(FindHomomorphism({Atom(r_, {b_, y_})}, data).has_value());
}

TEST_F(LogicTest, HomomorphismJoins) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {b_, c_});
  // R(x,y), R(y,z): must chain a->b->c.
  auto hom = FindHomomorphism({Atom(r_, {x_, y_}), Atom(r_, {y_, z_})}, data);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(ApplyToTerm(*hom, y_), b_);

  // R(x,y), R(y,x): no 2-cycle in the data.
  EXPECT_FALSE(
      FindHomomorphism({Atom(r_, {x_, y_}), Atom(r_, {y_, x_})}, data)
          .has_value());
}

TEST_F(LogicTest, RepeatedVariableInAtom) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  EXPECT_FALSE(FindHomomorphism({Atom(r_, {x_, x_})}, data).has_value());
  data.AddFact(r_, {c_, c_});
  EXPECT_TRUE(FindHomomorphism({Atom(r_, {x_, x_})}, data).has_value());
}

TEST_F(LogicTest, SeedConstrainsSearch) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {b_, c_});
  Substitution seed{{x_, b_}};
  auto hom = FindHomomorphism({Atom(r_, {x_, y_})}, data, &seed);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(ApplyToTerm(*hom, y_), c_);
}

TEST_F(LogicTest, ForEachHomomorphismCountsAll) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {a_, c_});
  size_t n = ForEachHomomorphism({Atom(r_, {x_, y_})}, data, nullptr,
                                 [](const Substitution&) { return true; });
  EXPECT_EQ(n, 2u);
}

TEST_F(LogicTest, SeedMappingToAbsentNullFindsNothing) {
  // The seed binds x to a null that occurs nowhere in the data: the search
  // must cleanly report "no match", not crash or ignore the binding.
  Instance data;
  data.AddFact(r_, {a_, b_});
  Term n0 = universe_.FreshNull();
  Substitution seed{{x_, n0}};
  EXPECT_FALSE(FindHomomorphism({Atom(r_, {x_, y_})}, data, &seed).has_value());
  size_t count = ForEachHomomorphism({Atom(r_, {x_, y_})}, data, &seed,
                                     [](const Substitution&) { return true; });
  EXPECT_EQ(count, 0u);
}

TEST_F(LogicTest, SeedMappingToAbsentNullPrunesOnlyItsAtom) {
  // Same absent-null seed, but on the *second* atom of a join: the first
  // atom still enumerates candidates; the bound position on the second
  // prunes every extension.
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {b_, c_});
  Term n0 = universe_.FreshNull();
  Substitution seed{{z_, n0}};
  EXPECT_FALSE(
      FindHomomorphism({Atom(r_, {x_, y_}), Atom(r_, {y_, z_})}, data, &seed)
          .has_value());
  // Dropping the poisoned variable restores the match.
  Substitution ok{{x_, a_}};
  EXPECT_TRUE(
      FindHomomorphism({Atom(r_, {x_, y_}), Atom(r_, {y_, z_})}, data, &ok)
          .has_value());
}

TEST_F(LogicTest, DeltaHomomorphismSeesOnlyNewMatches) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  Instance::DeltaMark mark = data.Mark();
  data.AddFact(r_, {a_, c_});

  // One atom: only the post-mark fact matches.
  CompiledJoin join(std::vector<Atom>{Atom(r_, {x_, y_})});
  std::vector<Term> slots(join.num_slots());
  ASSERT_EQ(join.slot_term(1), y_);
  std::vector<Term> found;
  size_t n = join.ForEach(data, &mark, slots.data(), [&](const Term* s) {
    found.push_back(s[1]);
    return true;
  });
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(found[0], c_);

  // An empty delta yields no homomorphisms even though full search has two.
  Instance::DeltaMark now = data.Mark();
  EXPECT_EQ(join.ForEach(data, &now, slots.data(),
                         [](const Term*) { return true; }),
            0u);
  EXPECT_FALSE(join.Exists(data, &now, slots.data()));
}

TEST_F(LogicTest, DeltaHomomorphismPartitionsWithoutDuplicates) {
  // Two-atom join R(x,y), R(y,z): full count must equal pre-mark count plus
  // delta count — the pivot partitioning enumerates each new match exactly
  // once.
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {b_, c_});
  CompiledJoin join(std::vector<Atom>{Atom(r_, {x_, y_}), Atom(r_, {y_, z_})});
  std::vector<Term> slots(join.num_slots());
  auto all = [](const Term*) { return true; };
  size_t before = join.ForEach(data, nullptr, slots.data(), all);
  Instance::DeltaMark mark = data.Mark();
  data.AddFact(r_, {c_, a_});  // closes the cycle: 2 new chain matches
  size_t after = join.ForEach(data, nullptr, slots.data(), all);
  size_t delta = join.ForEach(data, &mark, slots.data(), all);
  EXPECT_EQ(before + delta, after);
  EXPECT_EQ(delta, 2u);
}

TEST_F(LogicTest, EmptyAtomListHasOneHomomorphism) {
  Instance data;
  size_t n = ForEachHomomorphism({}, data, nullptr,
                                 [](const Substitution&) { return true; });
  EXPECT_EQ(n, 1u);
}

TEST_F(LogicTest, InstanceHomomorphismMapsNulls) {
  Instance source, target;
  Term n0 = universe_.FreshNull();
  source.AddFact(r_, {n0, b_});
  target.AddFact(r_, {a_, b_});
  EXPECT_TRUE(InstanceHomomorphismExists(source, target));
  EXPECT_FALSE(InstanceHomomorphismExists(target, source));  // a is rigid
}

TEST_F(LogicTest, BooleanEvaluation) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})});
  EXPECT_TRUE(q.HoldsIn(data));
  ConjunctiveQuery q2 = ConjunctiveQuery::Boolean({Atom(s_, {x_})});
  EXPECT_FALSE(q2.HoldsIn(data));
}

TEST_F(LogicTest, NonBooleanEvaluation) {
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {a_, c_});
  ConjunctiveQuery q({Atom(r_, {x_, y_})}, {y_});
  auto answers = q.Evaluate(data);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0][0], b_);
  EXPECT_EQ(answers[1][0], c_);
}

TEST_F(LogicTest, CanonicalDatabase) {
  ConjunctiveQuery q = ConjunctiveQuery::Boolean(
      {Atom(r_, {x_, y_}), Atom(s_, {x_})});
  Instance canon = q.CanonicalDatabase();
  EXPECT_EQ(canon.NumFacts(), 2u);
  EXPECT_TRUE(canon.Contains(Fact(r_, {x_, y_})));
}

TEST_F(LogicTest, ContainmentChandraMerlin) {
  // Q1: R(x,y) & R(y,z)   is contained in   Q2: R(u,v).
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean({Atom(r_, {x_, y_}), Atom(r_, {y_, z_})});
  Term u = universe_.Variable("u"), v = universe_.Variable("v");
  ConjunctiveQuery q2 = ConjunctiveQuery::Boolean({Atom(r_, {u, v})});
  EXPECT_TRUE(q1.ContainedIn(q2));
  EXPECT_FALSE(q2.ContainedIn(q1));
}

TEST_F(LogicTest, ContainmentWithFreeVariables) {
  // Q1(x) :- R(x,b)  ⊆  Q2(x) :- R(x,y).
  ConjunctiveQuery q1({Atom(r_, {x_, b_})}, {x_});
  ConjunctiveQuery q2({Atom(r_, {x_, y_})}, {x_});
  EXPECT_TRUE(q1.ContainedIn(q2));
  EXPECT_FALSE(q2.ContainedIn(q1));
}

TEST_F(LogicTest, MinimizeFoldsRedundantAtom) {
  // R(x,y) & R(x,z): z folds onto y.
  ConjunctiveQuery q =
      ConjunctiveQuery::Boolean({Atom(r_, {x_, y_}), Atom(r_, {x_, z_})});
  ConjunctiveQuery core = q.Minimize();
  EXPECT_EQ(core.atoms().size(), 1u);
}

TEST_F(LogicTest, MinimizeKeepsCore) {
  // R(x,y) & S(y): both atoms necessary.
  ConjunctiveQuery q =
      ConjunctiveQuery::Boolean({Atom(r_, {x_, y_}), Atom(s_, {y_})});
  EXPECT_EQ(q.Minimize().atoms().size(), 2u);
}

TEST_F(LogicTest, MinimizePreservesFreeVariables) {
  // Q(y, z) :- R(x,y) & R(x,z): y,z free, cannot fold.
  ConjunctiveQuery q({Atom(r_, {x_, y_}), Atom(r_, {x_, z_})}, {y_, z_});
  EXPECT_EQ(q.Minimize().atoms().size(), 2u);
}

TEST_F(LogicTest, UnionQueryEvaluation) {
  Instance data;
  data.AddFact(s_, {a_});
  UnionQuery uq({ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})}),
                 ConjunctiveQuery::Boolean({Atom(s_, {x_})})});
  EXPECT_TRUE(uq.HoldsIn(data));
}

TEST_F(LogicTest, SubstituteRewritesQuery) {
  ConjunctiveQuery q({Atom(r_, {x_, y_})}, {y_});
  Substitution sub{{y_, b_}};
  ConjunctiveQuery grounded = q.Substitute(sub);
  EXPECT_EQ(grounded.atoms()[0].args[1], b_);
  EXPECT_EQ(grounded.free_variables()[0], b_);
}

}  // namespace
}  // namespace rbda
