#include "core/reduction.h"

#include "chase/containment.h"
#include "core/simplification.h"
#include "gtest/gtest.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

TEST(ReductionTest, PrimedCopies) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  RelationId prof;
  ASSERT_TRUE(u.LookupRelation("Prof", &prof));
  RelationId primed = PrimedRelation(&u, prof);
  EXPECT_EQ(u.RelationName(primed), "Prof@p");
  EXPECT_EQ(u.Arity(primed), 3u);
  EXPECT_EQ(PrimedRelation(&u, prof), primed);  // idempotent

  ConjunctiveQuery q = doc.queries.at("Q2");
  PrimedRelations primed_ids(&u);
  ConjunctiveQuery qp = PrimeQuery(&primed_ids, q);
  EXPECT_EQ(qp.atoms()[0].relation, PrimedRelation(&u, q.atoms()[0].relation));

  ConstraintSet primed_cs =
      PrimeConstraints(&primed_ids, doc.schema.constraints());
  EXPECT_EQ(primed_cs.tgds.size(), 1u);
  EXPECT_EQ(primed_cs.tgds[0].body()[0].relation,
            PrimedRelation(&u, doc.schema.constraints().tgds[0].body()[0].relation));
}

TEST(ReductionTest, RejectsNonBooleanQueries) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  EXPECT_FALSE(BuildAmonDetReduction(doc.schema, doc.queries.at("Q1")).ok());
}

TEST(ReductionTest, RewrittenModeRequiresBoundOne) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);  // bound 100
  ReductionOptions opts;
  opts.mode = ReductionMode::kRewritten;
  EXPECT_FALSE(
      BuildAmonDetReduction(doc.schema, doc.queries.at("Q2"), opts).ok());
}

TEST(ReductionTest, GammaShapeWithoutBounds) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, doc.queries.at("Q2"));
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  // Σ + Σ' (1 each) + one axiom per method (2).
  EXPECT_EQ(red->gamma.tgds.size(), 4u);
  EXPECT_TRUE(red->cardinality_rules.empty());
  EXPECT_EQ(red->axiom_method.size(), 2u);
}

TEST(ReductionTest, NaiveModeEmitsCardinalityRules) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  ReductionOptions opts;
  opts.mode = ReductionMode::kNaive;
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, doc.queries.at("Q2"), opts);
  ASSERT_TRUE(red.ok());
  ASSERT_EQ(red->cardinality_rules.size(), 1u);
  EXPECT_EQ(red->cardinality_rules[0].bound, 100u);
  // Σ + Σ' + pr axiom + two R_Accessed unpacking rules.
  EXPECT_EQ(red->gamma.tgds.size(), 5u);
}

TEST(ReductionTest, StartContainsAccessibleConstants) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  // Boolean version of Q1 keeps the constant 10000.
  ConjunctiveQuery q1 = doc.queries.at("Q1");
  ConjunctiveQuery boolean_q1 = ConjunctiveQuery::Boolean(q1.atoms());
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, boolean_q1);
  ASSERT_TRUE(red.ok());
  Term c = u.Constant("10000");
  EXPECT_TRUE(red->start.Contains(Fact(red->accessible_rel, {c})));
  EXPECT_EQ(red->start.NumFacts(), q1.atoms().size() + 1);
}

// End-to-end sanity: the AMonDet containment decides Example 1.2 (Q1
// answerable without bounds) through the generic chase.
TEST(ReductionTest, Q1AnswerableWithoutBounds) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  ConjunctiveQuery boolean_q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, boolean_q1);
  ASSERT_TRUE(red.ok());
  ContainmentOutcome outcome =
      CheckContainmentFrom(red->start, red->q_prime.atoms(), red->gamma, &u);
  EXPECT_EQ(outcome.verdict, ContainmentVerdict::kContained);
}

// Example 1.4 via the naive reduction: Q2 is answerable even with the
// result bound, and the cardinality rules prove it.
TEST(ReductionTest, Q2AnswerableViaNaiveReduction) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  ReductionOptions opts;
  opts.mode = ReductionMode::kNaive;
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, doc.queries.at("Q2"), opts);
  ASSERT_TRUE(red.ok());
  ContainmentOutcome outcome =
      CheckContainmentFrom(red->start, red->q_prime.atoms(), red->gamma, &u,
                           {}, red->cardinality_rules);
  EXPECT_EQ(outcome.verdict, ContainmentVerdict::kContained);
}

// Example 1.3 via the naive reduction: Q1 (Booleanized) is NOT answerable
// with the bound; the chase must terminate without reaching the goal.
TEST(ReductionTest, Q1NotAnswerableViaNaiveReduction) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  ConjunctiveQuery boolean_q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  ReductionOptions opts;
  opts.mode = ReductionMode::kNaive;
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, boolean_q1, opts);
  ASSERT_TRUE(red.ok());
  ContainmentOutcome outcome =
      CheckContainmentFrom(red->start, red->q_prime.atoms(), red->gamma, &u,
                           {}, red->cardinality_rules);
  EXPECT_EQ(outcome.verdict, ContainmentVerdict::kNotContained);
}

// Example 3.5: the naive reduction of the university schema with bound 100
// contains the referential constraint on both copies, the pr accessibility
// axiom, the lower-bound axioms for j ≤ 100 (as one cardinality rule with
// k = 100), and the R_Accessed unpacking axioms.
TEST(ReductionTest, Example35Structure) {
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
method ud on Udirectory inputs() limit 100
tgd Udirectory(i, a, p) -> Prof(i, n, s)
query Q() :- Prof(i, n, s)
)",
                                 &u);
  ReductionOptions opts;
  opts.mode = ReductionMode::kNaive;
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(doc.schema, doc.queries.at("Q"), opts);
  ASSERT_TRUE(red.ok());

  RelationId udir, prof, udir_p, prof_p;
  ASSERT_TRUE(u.LookupRelation("Udirectory", &udir));
  ASSERT_TRUE(u.LookupRelation("Prof", &prof));
  ASSERT_TRUE(u.LookupRelation("Udirectory@p", &udir_p));
  ASSERT_TRUE(u.LookupRelation("Prof@p", &prof_p));

  // The referential constraint appears for both copies.
  bool original_copy = false, primed_copy = false;
  for (const Tgd& tgd : red->gamma.tgds) {
    if (tgd.body()[0].relation == udir &&
        tgd.head()[0].relation == prof) {
      original_copy = true;
    }
    if (tgd.body()[0].relation == udir_p &&
        tgd.head()[0].relation == prof_p) {
      primed_copy = true;
    }
  }
  EXPECT_TRUE(original_copy);
  EXPECT_TRUE(primed_copy);

  // pr gets a plain accessibility axiom; ud gets the cardinality rule.
  EXPECT_EQ(red->axiom_method.size(), 1u);
  EXPECT_EQ(red->axiom_method.begin()->second, "pr");
  ASSERT_EQ(red->cardinality_rules.size(), 1u);
  EXPECT_EQ(red->cardinality_rules[0].bound, 100u);
  EXPECT_EQ(red->cardinality_rules[0].source_rel, udir);
  EXPECT_TRUE(red->cardinality_rules[0].input_positions.empty());
  // Unpacking axioms for both accessed relations.
  EXPECT_EQ(red->accessed.size(), 2u);
}

// Prop 3.3 (ElimUB): replacing the result bound by a lower bound does not
// change the verdicts above.
TEST(ReductionTest, ElimUbInvariance) {
  for (const char* query : {"Q1", "Q2"}) {
    Universe u;
    ParsedDocument doc = MustParse(kUniversityBounded, &u);
    ConjunctiveQuery q =
        ConjunctiveQuery::Boolean(doc.queries.at(query).atoms());
    ReductionOptions opts;
    opts.mode = ReductionMode::kNaive;

    StatusOr<AmonDetReduction> red_a =
        BuildAmonDetReduction(doc.schema, q, opts);
    ASSERT_TRUE(red_a.ok());
    ContainmentOutcome a = CheckContainmentFrom(
        red_a->start, red_a->q_prime.atoms(), red_a->gamma, &u, {},
        red_a->cardinality_rules);

    Universe u2;
    ParsedDocument doc2 = MustParse(kUniversityBounded, &u2);
    ServiceSchema relaxed = ElimUB(doc2.schema);
    ConjunctiveQuery q2 =
        ConjunctiveQuery::Boolean(doc2.queries.at(query).atoms());
    StatusOr<AmonDetReduction> red_b =
        BuildAmonDetReduction(relaxed, q2, opts);
    ASSERT_TRUE(red_b.ok());
    ContainmentOutcome b = CheckContainmentFrom(
        red_b->start, red_b->q_prime.atoms(), red_b->gamma, &u2, {},
        red_b->cardinality_rules);

    EXPECT_EQ(a.verdict, b.verdict) << query;
  }
}

}  // namespace
}  // namespace rbda
