// Parameterized property sweeps for the chase engine: soundness (results
// satisfy the constraints), universality (results embed into every model
// extending the start instance), and UCQ containment behaviour.
#include "chase/certain_answers.h"
#include "chase/chase.h"
#include "chase/containment.h"
#include "core/answerability.h"
#include "core/reduction.h"
#include "core/simplification.h"
#include "gtest/gtest.h"
#include "runtime/generators.h"
#include "runtime/schema_generators.h"

namespace rbda {
namespace {

class ChaseSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseSoundness, CompletedChasesSatisfyConstraints) {
  Rng rng(GetParam() * 7 + 5);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.max_arity = 3;
  options.num_constraints = 3;
  options.num_methods = 0;
  options.prefix = "CS" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  Instance start = RandomInstance(&u, schema.relations(), 4, 8, &rng);

  ChaseOptions chase_options;
  chase_options.max_rounds = 200;
  chase_options.max_facts = 20000;
  ChaseResult result =
      RunChase(start, schema.constraints(), &u, chase_options);
  if (result.status != ChaseStatus::kCompleted) return;
  EXPECT_TRUE(schema.constraints().SatisfiedBy(result.instance))
      << schema.ToString();
  EXPECT_TRUE(start.IsSubinstanceOf(result.instance));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseSoundness,
                         ::testing::Range<uint64_t>(1, 31));

class ChaseUniversality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseUniversality, ChaseEmbedsIntoEveryExtension) {
  Rng rng(GetParam() * 11 + 3);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 2;
  options.max_arity = 2;
  options.num_constraints = 2;
  options.num_methods = 0;
  options.prefix = "CU" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  Instance start = RandomInstance(&u, schema.relations(), 3, 5, &rng);

  ChaseOptions chase_options;
  chase_options.max_rounds = 100;
  chase_options.max_facts = 5000;
  ChaseResult chased =
      RunChase(start, schema.constraints(), &u, chase_options);
  if (chased.status != ChaseStatus::kCompleted) return;

  // Any model built from the start plus extra noise must receive a
  // homomorphism from the chase result.
  for (int trial = 0; trial < 3; ++trial) {
    Instance seed = start;
    seed.UnionWith(RandomInstance(&u, schema.relations(), 3, 4, &rng));
    StatusOr<Instance> model =
        CompleteToModel(seed, schema.constraints(), &u, chase_options);
    if (!model.ok()) continue;
    EXPECT_TRUE(InstanceHomomorphismExists(chased.instance, *model))
        << "trial " << trial << "\nschema:\n"
        << schema.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseUniversality,
                         ::testing::Range<uint64_t>(1, 21));

class FdChaseSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdChaseSweep, EgdRepairsAlwaysSatisfyFds) {
  Rng rng(GetParam() * 13 + 1);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 2;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 4;
  options.num_methods = 0;
  options.prefix = "FS" + std::to_string(GetParam());
  ServiceSchema schema = GenerateFdSchema(&u, options, &rng);

  // Mix constants and nulls so merges actually happen.
  Instance start = RandomInstance(&u, schema.relations(), 3, 6, &rng);
  Instance with_nulls;
  start.ForEachFact([&](FactRef f) {
    Fact g(f);
    for (Term& t : g.args) {
      if (rng.Chance(1, 3)) t = u.FreshNull();
    }
    with_nulls.AddFact(std::move(g));
    with_nulls.AddFact(f);
  });

  ChaseResult result = RunChase(with_nulls, schema.constraints(), &u);
  if (result.status == ChaseStatus::kFdConflict) return;  // legal outcome
  ASSERT_EQ(result.status, ChaseStatus::kCompleted);
  for (const Fd& fd : schema.constraints().fds) {
    EXPECT_TRUE(fd.SatisfiedBy(result.instance)) << fd.ToString(u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdChaseSweep,
                         ::testing::Range<uint64_t>(1, 31));

// ---- Semi-naive ≡ naive. ----

// The delta-driven engine must be observationally equivalent to the naive
// re-enumeration engine: same chase status, homomorphically equivalent
// results, identical certain answers. Swept over three schema families
// (IDs, FDs, UIDs+FDs) and the naive reductions of IDs+FDs schemas with
// bounded methods, × 67 seeds = 268 generated cases.
class SemiNaiveEquivalence : public ::testing::TestWithParam<uint64_t> {
 protected:
  void CheckSchema(const ServiceSchema& schema, Universe* u, Rng* rng) {
    Instance start = RandomInstance(u, schema.relations(), 4, 8, rng);

    ChaseOptions naive;
    naive.max_rounds = 60;
    naive.max_facts = 8000;
    naive.use_semi_naive = false;
    ChaseOptions semi = naive;
    semi.use_semi_naive = true;

    ChaseResult naive_result =
        RunChase(start, schema.constraints(), u, naive);
    ChaseResult semi_result = RunChase(start, schema.constraints(), u, semi);

    EXPECT_EQ(naive_result.status, semi_result.status) << schema.ToString();
    if (naive_result.status == ChaseStatus::kCompleted &&
        semi_result.status == ChaseStatus::kCompleted) {
      // Both are universal models over the same start: they must embed
      // into each other (they differ at most in null naming and order).
      EXPECT_TRUE(InstanceHomomorphismExists(naive_result.instance,
                                             semi_result.instance))
          << schema.ToString();
      EXPECT_TRUE(InstanceHomomorphismExists(semi_result.instance,
                                             naive_result.instance))
          << schema.ToString();
      EXPECT_TRUE(schema.constraints().SatisfiedBy(semi_result.instance))
          << schema.ToString();
    }

    // Certain answers are semantically determined, so the engines must
    // agree exactly — including the completeness/inconsistency flags.
    ConjunctiveQuery q = GenerateQuery(schema, 2, 3, rng);
    StatusOr<CertainAnswersResult> ca_naive =
        CertainAnswers(q, start, schema.constraints(), u, naive);
    StatusOr<CertainAnswersResult> ca_semi =
        CertainAnswers(q, start, schema.constraints(), u, semi);
    ASSERT_EQ(ca_naive.ok(), ca_semi.ok()) << schema.ToString();
    if (ca_naive.ok()) {
      EXPECT_EQ(ca_naive->answers, ca_semi->answers) << schema.ToString();
      EXPECT_EQ(ca_naive->complete, ca_semi->complete) << schema.ToString();
      EXPECT_EQ(ca_naive->inconsistent, ca_semi->inconsistent)
          << schema.ToString();
    }
  }
};

TEST_P(SemiNaiveEquivalence, IdSchemas) {
  Rng rng(GetParam() * 17 + 9);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.max_arity = 3;
  options.num_constraints = 3;
  options.num_methods = 0;
  options.prefix = "SNI" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  CheckSchema(schema, &u, &rng);
}

TEST_P(SemiNaiveEquivalence, FdSchemas) {
  Rng rng(GetParam() * 19 + 7);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 2;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 4;
  options.num_methods = 0;
  options.prefix = "SNF" + std::to_string(GetParam());
  ServiceSchema schema = GenerateFdSchema(&u, options, &rng);
  CheckSchema(schema, &u, &rng);
}

TEST_P(SemiNaiveEquivalence, UidFdSchemas) {
  Rng rng(GetParam() * 23 + 11);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 4;
  options.num_methods = 0;
  options.prefix = "SNU" + std::to_string(GetParam());
  ServiceSchema schema = GenerateUidFdSchema(&u, options, &rng);
  CheckSchema(schema, &u, &rng);
}

// The naive §3 reduction of an IDs+FDs schema with result-bounded
// methods: Γ carries the FDs and a cardinality rule per bounded method, so
// both engines run the FD check and the cardinality rounds, delta rounds
// in the semi-naive engine and full rounds in the naive one. Each
// relation also gets an unbounded method on position 0 and a bounded one
// on position 1, so a value reached through the first becomes accessible
// rounds after the source facts the second's binding needs.
TEST_P(SemiNaiveEquivalence, IdFdNaiveReductions) {
  Rng rng(GetParam() * 29 + 13);
  Universe u;
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.min_arity = 2;
  options.max_arity = 3;
  options.num_constraints = 3;
  options.num_methods = 3;
  options.bounded_pct = 100;
  options.max_bound = 3;
  options.prefix = "SNR" + std::to_string(GetParam());
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  for (RelationId rel : schema.relations()) {
    const uint32_t arity = u.Arity(rel);
    const std::string name = u.RelationName(rel);
    ASSERT_TRUE(schema.AddMethod({name + "_free", rel, {0}}).ok());
    ASSERT_TRUE(schema
                    .AddMethod({name + "_lim", rel, {1},
                                BoundKind::kResultBound,
                                1 + static_cast<uint32_t>(rng.Below(3))})
                    .ok());
    const uint32_t lhs = static_cast<uint32_t>(rng.Below(arity));
    const uint32_t rhs = static_cast<uint32_t>(rng.Below(arity));
    if (lhs != rhs) {
      schema.constraints().fds.emplace_back(rel, std::vector<uint32_t>{lhs},
                                            rhs);
    }
  }
  FrozenQuery frozen = FreezeQuery(GenerateQuery(schema, 2, 3, &rng), &u);
  ReductionOptions naive_reduction;
  naive_reduction.mode = ReductionMode::kNaive;
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(ElimUB(schema), frozen.boolean_q,
                            naive_reduction, &frozen.accessible_constants);
  ASSERT_TRUE(red.ok()) << red.status().ToString();

  // Seed the relations with random facts, half their terms nulls, so
  // that FDs merge more often than they conflict, and make a third of
  // the other terms accessible.
  Instance start = red->start;
  RandomInstance(&u, schema.relations(), 3, 6, &rng).ForEachFact(
      [&](FactRef f) {
        Fact g(f);
        for (Term& t : g.args) {
          if (rng.Chance(1, 2)) {
            t = u.FreshNull();
          } else if (rng.Chance(1, 3)) {
            start.AddFact(red->accessible_rel, {t});
          }
        }
        start.AddFact(std::move(g));
      });

  ChaseOptions naive;
  naive.max_rounds = 60;
  naive.max_facts = 8000;
  naive.use_semi_naive = false;
  ChaseOptions semi = naive;
  semi.use_semi_naive = true;
  bool naive_goal = false;
  bool semi_goal = false;
  ChaseResult n = RunChaseUntil(start, red->gamma, red->q_prime.atoms(), &u,
                                &naive_goal, naive, red->cardinality_rules);
  ChaseResult s = RunChaseUntil(start, red->gamma, red->q_prime.atoms(), &u,
                                &semi_goal, semi, red->cardinality_rules);
  EXPECT_EQ(n.status, s.status) << schema.ToString();
  EXPECT_EQ(naive_goal, semi_goal) << schema.ToString();
  // Every TGD of this Γ with an existential variable has one body atom,
  // whose pre-delta triggers a naive round finds inactive, and a naive
  // cardinality round finds every binding outside the delta satisfied. So
  // both engines fire the same triggers and bindings in the same order,
  // and the runs agree exactly.
  EXPECT_EQ(n.rounds, s.rounds) << schema.ToString();
  EXPECT_EQ(n.tgd_steps, s.tgd_steps) << schema.ToString();
  EXPECT_EQ(n.egd_merges, s.egd_merges) << schema.ToString();
  EXPECT_EQ(n.instance.NumFacts(), s.instance.NumFacts()) << schema.ToString();
  if (n.status == ChaseStatus::kCompleted && !naive_goal) {
    EXPECT_TRUE(InstanceHomomorphismExists(n.instance, s.instance))
        << schema.ToString();
    EXPECT_TRUE(InstanceHomomorphismExists(s.instance, n.instance))
        << schema.ToString();
    EXPECT_TRUE(red->gamma.SatisfiedBy(s.instance)) << schema.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaiveEquivalence,
                         ::testing::Range<uint64_t>(1, 68));

// ---- UCQ containment. ----

class UcqContainmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 2);
    t_ = *universe_.AddRelation("T", 1);
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
  }
  Universe universe_;
  RelationId r_, s_, t_;
  Term x_, y_;
};

TEST_F(UcqContainmentTest, DisjunctsCoveredSeparately) {
  // Σ: R(x,y) -> T(x); S(x,y) -> T(x). Then (R ∪ S) ⊆_Σ T.
  ConstraintSet sigma;
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                          std::vector<Atom>{Atom(t_, {x_})});
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(s_, {x_, y_})},
                          std::vector<Atom>{Atom(t_, {x_})});
  UnionQuery q({ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})}),
                ConjunctiveQuery::Boolean({Atom(s_, {x_, y_})})});
  UnionQuery t_query({ConjunctiveQuery::Boolean({Atom(t_, {x_})})});
  EXPECT_EQ(CheckUcqContainment(q, t_query, sigma, &universe_).verdict,
            ContainmentVerdict::kContained);
  // The converse fails: T alone entails neither R nor S.
  EXPECT_EQ(CheckUcqContainment(t_query, q, sigma, &universe_).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(UcqContainmentTest, RightSideDisjunction) {
  // No constraints: R ⊆ (R ∪ S) but R ⊄ S.
  ConstraintSet sigma;
  UnionQuery r_query({ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})})});
  UnionQuery either({ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})}),
                     ConjunctiveQuery::Boolean({Atom(s_, {x_, y_})})});
  UnionQuery s_query({ConjunctiveQuery::Boolean({Atom(s_, {x_, y_})})});
  EXPECT_EQ(CheckUcqContainment(r_query, either, sigma, &universe_).verdict,
            ContainmentVerdict::kContained);
  EXPECT_EQ(CheckUcqContainment(r_query, s_query, sigma, &universe_).verdict,
            ContainmentVerdict::kNotContained);
}

TEST_F(UcqContainmentTest, EmptyLeftIsContained) {
  ConstraintSet sigma;
  UnionQuery empty;
  UnionQuery s_query({ConjunctiveQuery::Boolean({Atom(s_, {x_, y_})})});
  EXPECT_EQ(CheckUcqContainment(empty, s_query, sigma, &universe_).verdict,
            ContainmentVerdict::kContained);
}

TEST_F(UcqContainmentTest, AgreesWithCqContainment) {
  ConstraintSet sigma;
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(r_, {x_, y_})},
                          std::vector<Atom>{Atom(s_, {y_, x_})});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})});
  ConjunctiveQuery qp = ConjunctiveQuery::Boolean({Atom(s_, {y_, x_})});
  ContainmentOutcome single = CheckContainment(q, qp, sigma, &universe_);
  ContainmentOutcome as_ucq = CheckUcqContainment(
      UnionQuery({q}), UnionQuery({qp}), sigma, &universe_);
  EXPECT_EQ(single.verdict, as_ucq.verdict);
}

}  // namespace
}  // namespace rbda
