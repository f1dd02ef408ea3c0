// Table 1, row 2 — bounded-width IDs: existence-check simplifiable,
// NP-complete (Thm 5.4) via linearization (Prop 5.5).
//
// Reproduced series:
//  * the linearization crossover: decision cost of the linearized
//    Johnson–Klug engine vs the generic chase engine as the schema grows at
//    fixed width 1. The generic chase fails to terminate on cyclic UID
//    schemas (reports "unknown"), while the linearized engine always
//    decides — the qualitative "who wins" of Thm 5.4 vs the naive
//    2EXPTIME route;
//  * decision completeness rates of both engines over random width-1
//    schemas.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace rbda {
namespace {

// A value-shifting cyclic chain: R_i(x,y) -> ∃z R_{i+1}(y,z) and back from
// the tail to the head. Every chase step mints a fresh exported value, so
// the restricted chase never terminates; only the depth-bounded
// Johnson–Klug engine can prove non-answerability (Prop 5.6).
ServiceSchema CyclicChain(Universe* u, size_t length, const std::string& pfx) {
  ServiceSchema schema(u);
  std::vector<RelationId> relations;
  for (size_t i = 0; i < length; ++i) {
    relations.push_back(*schema.AddRelation(pfx + "_R" + std::to_string(i), 2));
  }
  for (size_t i = 0; i < length; ++i) {
    Term y = u->FreshVariable();
    std::vector<Term> body{u->FreshVariable(), y};
    std::vector<Term> head{y, u->FreshVariable()};
    schema.constraints().tgds.emplace_back(
        std::vector<Atom>{Atom(relations[i], body)},
        std::vector<Atom>{Atom(relations[(i + 1) % length], head)});
  }
  AccessMethod bounded{pfx + "_m0", relations[0], {}, BoundKind::kResultBound,
                       3};
  RBDA_CHECK(schema.AddMethod(std::move(bounded)).ok());
  for (size_t i = 1; i < length; ++i) {
    AccessMethod lookup{pfx + "_m" + std::to_string(i), relations[i], {0},
                        BoundKind::kNone, 0};
    RBDA_CHECK(schema.AddMethod(std::move(lookup)).ok());
  }
  // An unconstrained side relation with a lookup method: conjoining it to
  // the query yields a NON-answerable instance whose chase is infinite —
  // exactly where a budgeted proof search must give up while the
  // depth-bounded engine still refutes.
  RelationId z = *schema.AddRelation(pfx + "_Z", 2);
  AccessMethod zl{pfx + "_mz", z, {0}, BoundKind::kNone, 0};
  RBDA_CHECK(schema.AddMethod(std::move(zl)).ok());
  return schema;
}

// Q := R_tail(a,b) ∧ Z(a,b): the tail atom ignites the infinite cyclic
// chase; the Z atom can never transfer (nothing is accessible), so the
// containment fails — but only the Johnson–Klug engine can say so.
ConjunctiveQuery CyclicRefutationQuery(const ServiceSchema& schema) {
  Universe& u = schema.universe();
  Term a = u.FreshVariable(), b = u.FreshVariable();
  RelationId tail = schema.relations()[schema.relations().size() - 2];
  RelationId z = schema.relations().back();
  return ConjunctiveQuery::Boolean({Atom(tail, {a, b}), Atom(z, {a, b})});
}

void CompletenessTable() {
  std::printf(
      "--- Table 1 row 2: bounded-width IDs (linearization, NP) ---\n");
  std::printf("Random width-1 ID schemas, 40 seeds: decisions reached\n");
  int lin_complete = 0, gen_complete = 0, agreements = 0, both = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Universe u;
    Rng rng(seed);
    SchemaFamilyOptions options;
    options.num_relations = 3;
    options.max_arity = 3;
    options.num_constraints = 4;
    options.num_methods = 3;
    options.max_id_width = 1;
    options.prefix = "B" + std::to_string(seed);
    ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
    ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);

    DecisionOptions lin;
    lin.linear_depth_cap = 1500;
    StatusOr<Decision> a = DecideMonotoneAnswerability(schema, q, lin);

    DecisionOptions gen;
    gen.use_linearization = false;
    gen.chase.max_rounds = 60;
    gen.chase.max_facts = 20000;
    StatusOr<Decision> b = DecideMonotoneAnswerability(schema, q, gen);

    if (a.ok() && a->complete) ++lin_complete;
    if (b.ok() && b->complete) ++gen_complete;
    if (a.ok() && b.ok() && a->complete && b->complete) {
      ++both;
      if (a->verdict == b->verdict) ++agreements;
    }
  }
  std::printf("  linearized JK engine : %d/40 decided\n", lin_complete);
  std::printf("  generic chase engine : %d/40 decided\n", gen_complete);
  std::printf("  agreement when both decided: %d/%d\n", agreements, both);
  std::printf("Expected shape: the linearized engine decides everything; "
              "the generic engine gives up on cyclic schemas.\n\n");
}

void BM_LinearizedOnCyclicChain(benchmark::State& state) {
  size_t length = state.range(0);
  Universe u;
  ServiceSchema schema = CyclicChain(&u, length, "LC" + std::to_string(length));
  ConjunctiveQuery q = CyclicRefutationQuery(schema);
  DecisionOptions d;
  d.linear_depth_cap = 4000;
  int complete = 0;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
    complete = decision.ok() && decision->complete ? 1 : 0;
  }
  state.counters["decided"] = complete;
}
BENCHMARK(BM_LinearizedOnCyclicChain)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

void BM_GenericOnCyclicChain(benchmark::State& state) {
  size_t length = state.range(0);
  Universe u;
  ServiceSchema schema = CyclicChain(&u, length, "GC" + std::to_string(length));
  ConjunctiveQuery q = CyclicRefutationQuery(schema);
  DecisionOptions d;
  d.use_linearization = false;
  d.chase.max_rounds = 40;
  d.chase.max_facts = 20000;
  int complete = 0;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
    complete = decision.ok() && decision->complete ? 1 : 0;
  }
  state.counters["decided"] = complete;
}
BENCHMARK(BM_GenericOnCyclicChain)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

// NP behaviour: at fixed width, cost grows tamely with the number of
// relations.
void BM_LinearizedVsSchemaSize(benchmark::State& state) {
  size_t relations = state.range(0);
  Universe u;
  Rng rng(7);
  SchemaFamilyOptions options;
  options.num_relations = relations;
  options.max_arity = 2;
  options.num_constraints = relations;
  options.num_methods = relations;
  options.max_id_width = 1;
  options.prefix = "S" + std::to_string(relations);
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  ConjunctiveQuery q = GenerateQuery(schema, 2, 2, &rng);
  DecisionOptions d;
  d.linear_depth_cap = 3000;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_LinearizedVsSchemaSize)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::CompletenessTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "table1_row2_bwids", rbda::SweepFamily::kId, 16, "P2");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
