// Ablation B — Prop 3.3 (ElimUB): result *upper* bounds never affect
// monotone answerability. On random bounded schemas, deciding with result
// bounds and with result lower bounds only must agree, at the same cost.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/simplification.h"

namespace rbda {
namespace {

void AgreementTable() {
  std::printf("--- Ablation B: ElimUB (Prop 3.3) ---\n");
  int agree = 0, compared = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Universe u;
    Rng rng(seed * 13 + 11);
    SchemaFamilyOptions fam;
    fam.num_relations = 3;
    fam.max_arity = 2;
    fam.num_constraints = 2;
    fam.num_methods = 3;
    fam.bounded_pct = 80;
    fam.prefix = "EB" + std::to_string(seed);
    ServiceSchema schema = GenerateIdSchema(&u, fam, &rng);
    ConjunctiveQuery q = GenerateQuery(schema, 2, 2, &rng);

    DecisionOptions naive;
    naive.force_naive = true;
    naive.chase.max_rounds = 300;
    StatusOr<Decision> with_ub =
        DecideMonotoneAnswerability(schema, q, naive);
    StatusOr<Decision> without_ub =
        DecideMonotoneAnswerability(ElimUB(schema), q, naive);
    if (with_ub.ok() && without_ub.ok() && with_ub->complete &&
        without_ub->complete) {
      ++compared;
      if (with_ub->verdict == without_ub->verdict) ++agree;
    }
  }
  std::printf("Random bounded ID schemas: %d/%d identical verdicts with and "
              "without upper bounds.\n", agree, compared);
  std::printf("Expected shape: 100%% agreement (upper bounds are dead "
              "weight for answerability).\n\n");
}

void BM_DecideWithUpperBounds(benchmark::State& state) {
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(25), &u);
  RBDA_CHECK(doc.ok());
  ConjunctiveQuery q2 = doc->queries.at("Q2");
  DecisionOptions naive;
  naive.force_naive = true;
  for (auto _ : state) {
    StatusOr<Decision> d = DecideMonotoneAnswerability(doc->schema, q2, naive);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DecideWithUpperBounds)->Unit(benchmark::kMillisecond);

void BM_DecideLowerBoundsOnly(benchmark::State& state) {
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(25), &u);
  RBDA_CHECK(doc.ok());
  ServiceSchema relaxed = ElimUB(doc->schema);
  ConjunctiveQuery q2 = doc->queries.at("Q2");
  DecisionOptions naive;
  naive.force_naive = true;
  for (auto _ : state) {
    StatusOr<Decision> d = DecideMonotoneAnswerability(relaxed, q2, naive);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DecideLowerBoundsOnly)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::AgreementTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "ablation_elimub", rbda::SweepFamily::kChain, 12, "AE");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
