#include "core/answerability.h"

#include "core/simplification.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

Decision MustDecide(const ServiceSchema& schema, const ConjunctiveQuery& q,
                    const DecisionOptions& options = {}) {
  StatusOr<Decision> d = DecideMonotoneAnswerability(schema, q, options);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return *d;
}

// ---- Row 1/2 of Table 1: IDs. ----

TEST(AnswerabilityTest, Example12_IdsNoBounds) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  Decision d = MustDecide(doc.schema, q1);
  EXPECT_EQ(d.fragment, Fragment::kIdsOnly);
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, Example13_BoundBreaksQ1) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  Decision d = MustDecide(doc.schema, q1);
  EXPECT_EQ(d.verdict, Answerability::kNotAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, Example14_ExistenceCheckStillWorks) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q2"));
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, NaiveAblationAgreesOnIds) {
  // Ablation: the naive §3 reduction must agree with the linearized
  // pipeline on the university examples.
  for (const char* query : {"Q1", "Q2"}) {
    Universe u;
    ParsedDocument doc = MustParse(kUniversityBounded, &u);
    ConjunctiveQuery q =
        ConjunctiveQuery::Boolean(doc.queries.at(query).atoms());
    Decision fast = MustDecide(doc.schema, q);
    DecisionOptions naive;
    naive.force_naive = true;
    Decision slow = MustDecide(doc.schema, q, naive);
    EXPECT_EQ(fast.verdict, slow.verdict) << query;
    EXPECT_TRUE(slow.complete);
  }
}

// ---- Row 3: FDs (Example 1.5). ----

TEST(AnswerabilityTest, Example15_FdMakesAddressAnswerable) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityFd, &u);
  FrozenQuery frozen = FreezeQuery(doc.queries.at("Q3"), &u);
  StatusOr<Decision> d = DecideMonotoneAnswerability(
      doc.schema, frozen.boolean_q);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->fragment, Fragment::kFdsOnly);
  EXPECT_EQ(d->verdict, Answerability::kAnswerable);
  EXPECT_TRUE(d->complete);
}

TEST(AnswerabilityTest, Example15_PhoneIsNotDetermined) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityFd, &u);
  FrozenQuery frozen = FreezeQuery(doc.queries.at("Qphone"), &u);
  Decision d = MustDecide(doc.schema, frozen.boolean_q);
  EXPECT_EQ(d.verdict, Answerability::kNotAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, FdExistenceQueryAnswerable) {
  // With a bound-1 method, asking "is there an entry with id 12345" is an
  // existence check: answerable regardless of FDs.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation Udirectory(id, address, phone)
method ud2 on Udirectory inputs(0) limit 1
query Qexists() :- Udirectory("12345", a, p)
)",
                                 &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Qexists"));
  EXPECT_EQ(d.fragment, Fragment::kEmpty);
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
}

TEST(AnswerabilityTest, NoMethodsMeansOnlyTrivialQueries) {
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
query Q() :- R(x, y)
)",
                                 &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(d.verdict, Answerability::kNotAnswerable);
  EXPECT_TRUE(d.complete);
}

// ---- Row 4: UIDs + FDs (Thm 7.2 pipeline). ----

TEST(AnswerabilityTest, UidFd_DeterminedLookupAnswerable) {
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
relation S(x)
method m on R inputs(0) limit 1
tgd S(x) -> R(x, y)
fd R: 0 -> 1
query Q() :- R("c1", "c2")
)",
                                 &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(d.fragment, Fragment::kUidsAndFds);
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, UidFd_WithoutFdNotAnswerable) {
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
relation S(x)
method m on R inputs(0) limit 1
tgd S(x) -> R(x, y)
query Q() :- R("c1", "c2")
)",
                                 &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(d.verdict, Answerability::kNotAnswerable);
  EXPECT_TRUE(d.complete);
}

// ---- Rows 5/6: TGDs via choice simplification (Example 6.1). ----

TEST(AnswerabilityTest, Example61_ChoiceSimplificationWorks) {
  Universe u;
  ParsedDocument doc = MustParse(kExample61, &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(d.fragment, Fragment::kFrontierGuardedTgds);
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, Example61_ExistenceCheckInsufficient) {
  // Per the paper, the existence-check simplification of Example 6.1 does
  // NOT answer Q: checking S non-empty says nothing about membership in T.
  Universe u;
  ParsedDocument doc = MustParse(kExample61, &u);
  ServiceSchema simplified = ExistenceCheckSimplification(doc.schema);
  Decision d = MustDecide(simplified, doc.queries.at("Q"));
  EXPECT_EQ(d.verdict, Answerability::kNotAnswerable);
}

TEST(AnswerabilityTest, Example61_BoundValueIrrelevant) {
  for (const char* bound : {"1", "7", "50"}) {
    Universe u;
    std::string text = std::string(R"(
relation T(x)
relation S(x)
method mtS on S inputs() limit )") +
                       bound + R"(
method mtT on T inputs(0)
tgd T(y) & S(x) -> T(x)
tgd T(y) -> S(x)
query Q() :- T(y)
)";
    ParsedDocument doc = MustParse(text, &u);
    Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
    EXPECT_EQ(d.verdict, Answerability::kAnswerable) << bound;
  }
}

// ---- Frozen non-Boolean queries. ----

TEST(AnswerabilityTest, FreezeQueryBasics) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  const ConjunctiveQuery& q1 = doc.queries.at("Q1");
  FrozenQuery frozen = FreezeQuery(q1, &u);
  EXPECT_TRUE(frozen.boolean_q.IsBoolean());
  EXPECT_EQ(frozen.freeze.size(), 1u);
  // The frozen constant replaced the free variable in the body.
  Term frozen_const = frozen.freeze.begin()->second;
  EXPECT_EQ(frozen.boolean_q.atoms()[0].args[1], frozen_const);
  // Original constants are accessible; the frozen one is not recorded.
  EXPECT_TRUE(frozen.accessible_constants.count(u.Constant("10000")));
  EXPECT_FALSE(frozen.accessible_constants.count(frozen_const));
}

TEST(AnswerabilityTest, DecideQueryAnswerabilityHandlesFreeVariables) {
  // Q(x) :- R(x, y) with a method requiring x as input: the answer value x
  // cannot be guessed, so the query is not answerable. A naive Booleanize
  // that leaves the frozen constant accessible would wrongly say yes.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method m on R inputs(0)
query Q(x) :- R(x, y)
)",
                                 &u);
  StatusOr<Decision> d =
      DecideQueryAnswerability(doc.schema, doc.queries.at("Q"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->verdict, Answerability::kNotAnswerable);

  // But with an input-free method the same query is answerable.
  Universe u2;
  ParsedDocument doc2 = MustParse(R"(
relation R(a, b)
method all on R inputs()
query Q(x) :- R(x, y)
)",
                                 &u2);
  StatusOr<Decision> d2 =
      DecideQueryAnswerability(doc2.schema, doc2.queries.at("Q"));
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->verdict, Answerability::kAnswerable);
}

TEST(AnswerabilityTest, DecideQueryAnswerabilityBooleanPassthrough) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  StatusOr<Decision> via_query =
      DecideQueryAnswerability(doc.schema, doc.queries.at("Q2"));
  StatusOr<Decision> direct =
      DecideMonotoneAnswerability(doc.schema, doc.queries.at("Q2"));
  ASSERT_TRUE(via_query.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_query->verdict, direct->verdict);
}

TEST(AnswerabilityTest, FrozenConstantsAreNotBindings) {
  // Q(x) :- R(x, y) with a method requiring x as input: NOT answerable
  // (the plan would have to guess x). The freeze must not leak the frozen
  // constant into the accessible seed.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method m on R inputs(0)
query Q(x) :- R(x, y)
)",
                                 &u);
  FrozenQuery frozen = FreezeQuery(doc.queries.at("Q"), &u);
  // Decide with the explicit accessible-constant seed.
  StatusOr<AmonDetReduction> red = BuildAmonDetReduction(
      doc.schema, frozen.boolean_q, {}, &frozen.accessible_constants);
  ASSERT_TRUE(red.ok());
  ContainmentOutcome outcome = CheckContainmentFrom(
      red->start, red->q_prime.atoms(), red->gamma, &u);
  EXPECT_EQ(outcome.verdict, ContainmentVerdict::kNotContained);
}

// ---- Finite monotone answerability (Cor 7.3). ----

TEST(AnswerabilityTest, FiniteVariantAgreesWhenControllable) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  ConjunctiveQuery q2 = doc.queries.at("Q2");
  StatusOr<Decision> unrestricted =
      DecideMonotoneAnswerability(doc.schema, q2);
  StatusOr<Decision> finite =
      DecideFiniteMonotoneAnswerability(doc.schema, q2);
  ASSERT_TRUE(unrestricted.ok());
  ASSERT_TRUE(finite.ok());
  EXPECT_EQ(unrestricted->verdict, finite->verdict);
}

TEST(AnswerabilityTest, FiniteClosureChangesVerdict) {
  // UID cycle R[0] ⊆ S[0] ⊆ R[1] plus FD R: 0 -> 1. Finitely, the reverse
  // UID S[0] ⊆ R[0] holds, which lets an S-value be looked up in R by a
  // bound-1 method on R with the FD determining position 1.
  const char* text = R"(
relation R(a, b)
relation S(x)
method ms on S inputs(0)
method mr on R inputs(0) limit 1
tgd R(x, y) -> S(x)
tgd S(x) -> R(y, x)
fd R: 0 -> 1
query Q() :- S("c1") & R("c1", "c2")
)";
  Universe u1;
  ParsedDocument doc1 = MustParse(text, &u1);
  StatusOr<Decision> unrestricted =
      DecideMonotoneAnswerability(doc1.schema, doc1.queries.at("Q"));
  ASSERT_TRUE(unrestricted.ok());

  Universe u2;
  ParsedDocument doc2 = MustParse(text, &u2);
  StatusOr<Decision> finite =
      DecideFiniteMonotoneAnswerability(doc2.schema, doc2.queries.at("Q"));
  ASSERT_TRUE(finite.ok());
  // The finite closure can only make more queries answerable.
  if (unrestricted->verdict == Answerability::kAnswerable) {
    EXPECT_EQ(finite->verdict, Answerability::kAnswerable);
  }
  EXPECT_NE(finite->procedure.find("finite closure"), std::string::npos);
}

TEST(AnswerabilityTest, FiniteClosureFlipsVerdictCkv) {
  // UID R[1] ⊆ R[0] with FD b -> a: a cardinality cycle. Over finite
  // instances the closure adds FD a -> b, making the bound-1 lookup by `a`
  // deterministic — Q becomes answerable only in the finite variant.
  const char* text = R"(
relation R(a, b)
method m on R inputs(0) limit 1
tgd R(x, y) -> R(y, z)
fd R: 1 -> 0
query Q() :- R("c1", "c2")
)";
  Universe u1;
  ParsedDocument d1 = MustParse(text, &u1);
  Decision unrestricted = MustDecide(d1.schema, d1.queries.at("Q"));
  EXPECT_EQ(unrestricted.verdict, Answerability::kNotAnswerable);
  EXPECT_TRUE(unrestricted.complete);

  Universe u2;
  ParsedDocument d2 = MustParse(text, &u2);
  StatusOr<Decision> finite =
      DecideFiniteMonotoneAnswerability(d2.schema, d2.queries.at("Q"));
  ASSERT_TRUE(finite.ok()) << finite.status().ToString();
  EXPECT_EQ(finite->verdict, Answerability::kAnswerable);
  EXPECT_TRUE(finite->complete);
}

// ---- Fragment dispatch / options plumbing. ----

TEST(AnswerabilityTest, BooleanMethodsIgnoreBounds) {
  // §2: accessing a Boolean method just tests membership; result bounds
  // have no effect. A bounded Boolean lookup answers membership queries.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method chk on R inputs(0, 1) limit 1
query Q() :- R("x", "y")
)",
                                 &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
  EXPECT_TRUE(d.complete);
}

TEST(AnswerabilityTest, InputFreeBoundedExistenceOnly) {
  // An input-free bounded method can only answer emptiness, never a
  // specific membership.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a)
method lst on R inputs() limit 4
query Qany() :- R(x)
query Qmember() :- R("v")
)",
                                 &u);
  EXPECT_EQ(MustDecide(doc.schema, doc.queries.at("Qany")).verdict,
            Answerability::kAnswerable);
  EXPECT_EQ(MustDecide(doc.schema, doc.queries.at("Qmember")).verdict,
            Answerability::kNotAnswerable);
}

TEST(AnswerabilityTest, TwoAtomJoinThroughLookups) {
  // Joining two relations through unbounded keyed lookups seeded by the
  // query constant.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation Emp(id, dept)
relation Dept(dept, name)
method e on Emp inputs(0)
method d on Dept inputs(0)
query Q() :- Emp("e7", x) & Dept(x, y)
)",
                                 &u);
  Decision dec = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(dec.verdict, Answerability::kAnswerable);
  EXPECT_TRUE(dec.complete);
}

TEST(AnswerabilityTest, BoundBreaksTheJoinLeg) {
  // Same join, but the Dept lookup is bounded: Dept(x, y) asks for ANY
  // tuple with that dept, so a bound-1 access still answers the
  // existential join (existence check!). Asking for a specific name does
  // not survive the bound.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation Emp(id, dept)
relation Dept(dept, name)
method e on Emp inputs(0)
method d on Dept inputs(0) limit 1
query Qexists() :- Emp("e7", x) & Dept(x, y)
query Qnamed() :- Emp("e7", x) & Dept(x, "sales")
)",
                                 &u);
  EXPECT_EQ(MustDecide(doc.schema, doc.queries.at("Qexists")).verdict,
            Answerability::kAnswerable);
  EXPECT_EQ(MustDecide(doc.schema, doc.queries.at("Qnamed")).verdict,
            Answerability::kNotAnswerable);
}

TEST(AnswerabilityTest, FdChainDeterminesThroughTransitivity) {
  // DetBy uses the FD closure: id -> dept and dept -> floor make floor
  // determined by id, so the bound-1 lookup answers floor queries.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation Emp(id, dept, floor)
method e on Emp inputs(0) limit 1
fd Emp: 0 -> 1
fd Emp: 1 -> 2
query Q() :- Emp("e7", d, "3")
)",
                                 &u);
  Decision dec = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(dec.fragment, Fragment::kFdsOnly);
  EXPECT_EQ(dec.verdict, Answerability::kAnswerable);
}

TEST(AnswerabilityTest, MultipleMethodsOnOneRelation) {
  // A bounded listing plus an unbounded keyed lookup on the same relation:
  // the combination answers what neither does alone.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method lst on R inputs() limit 2
method get on R inputs(0)
query Q() :- R(x, y) & R(y, z)
)",
                                 &u);
  // lst exposes SOME tuples; get then expands every reachable key. The
  // chase decides; we only require a definite verdict here plus agreement
  // with the naive pipeline.
  Decision fast = MustDecide(doc.schema, doc.queries.at("Q"));
  DecisionOptions naive;
  naive.force_naive = true;
  Decision slow = MustDecide(doc.schema, doc.queries.at("Q"), naive);
  ASSERT_TRUE(fast.complete);
  ASSERT_TRUE(slow.complete);
  EXPECT_EQ(fast.verdict, slow.verdict);
}

TEST(AnswerabilityTest, RejectsNonBooleanQuery) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  EXPECT_FALSE(
      DecideMonotoneAnswerability(doc.schema, doc.queries.at("Q1")).ok());
}

TEST(AnswerabilityTest, GenericIdPipelineAgreesWithLinearized) {
  for (const char* query : {"Q2"}) {
    Universe u;
    ParsedDocument doc = MustParse(kUniversityBounded, &u);
    ConjunctiveQuery q =
        ConjunctiveQuery::Boolean(doc.queries.at(query).atoms());
    Decision lin = MustDecide(doc.schema, q);
    DecisionOptions no_lin;
    no_lin.use_linearization = false;
    Decision gen = MustDecide(doc.schema, q, no_lin);
    if (gen.complete) {
      EXPECT_EQ(lin.verdict, gen.verdict) << query;
    }
  }
}

TEST(AnswerabilityTest, MixedFragmentFallsBackToNaive) {
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b, c)
method m on R inputs() limit 2
tgd R(x, y, z) -> R(y, x, w)
fd R: 0 -> 1
query Q() :- R(x, y, z)
)",
                                 &u);
  Decision d = MustDecide(doc.schema, doc.queries.at("Q"));
  EXPECT_EQ(d.fragment, Fragment::kIdsAndFds);
  EXPECT_NE(d.procedure.find("naive"), std::string::npos);
  EXPECT_EQ(d.verdict, Answerability::kAnswerable);
}

TEST(AnswerabilityTest, DecideLeavesObservabilityCounters) {
  // Integration with src/obs: a Decide run must record chase rounds and
  // containment homomorphism checks in the default metrics registry.
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.Reset();

  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  // Q2 decides at depth 0; Q1 (not answerable under the bound) forces the
  // engine to actually chase — with pruning off, since goal-directed mode
  // refutes Q1 from the relation signature without running a round.
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  DecisionOptions unpruned;
  unpruned.chase.prune_to_goal = false;
  EXPECT_TRUE(MustDecide(doc.schema, q1, unpruned).complete);
  EXPECT_TRUE(MustDecide(doc.schema, doc.queries.at("Q2")).complete);

  auto counter = [&registry](std::string_view name) -> uint64_t {
    for (const auto& [key, value] : registry.CounterValues()) {
      if (key == name) return value;
    }
    return 0;
  };
  EXPECT_GT(counter("answerability.decisions"), 0u);
  EXPECT_GT(counter("chase.rounds"), 0u);
  EXPECT_GT(counter("containment.checks"), 0u);
  EXPECT_GT(counter("containment.hom_checks"), 0u);
  // The Q2 decide ran goal-directed, so the prune accounting moved too.
  EXPECT_GT(counter("containment.prune.checks"), 0u);
  // Stage timings land in distributions.
  auto samples = [&registry](std::string_view name) -> uint64_t {
    for (const auto& [key, stats] : registry.DistributionValues()) {
      if (key == name) return stats.count;
    }
    return 0;
  };
  EXPECT_GT(samples("answerability.decide_us"), 0u);
  EXPECT_GT(samples("answerability.containment_us"), 0u);
}

}  // namespace
}  // namespace rbda
