// Table 1, row 1 — IDs: existence-check simplifiable (Thm 4.2),
// EXPTIME-complete (Thm 5.3).
//
// Reproduced series:
//  * verdicts of the paper's university examples for result bounds
//    k ∈ {1, 5, 100}: identical across k (existence-check simplifiability
//    means the bound value never matters);
//  * decision cost as the ID width w grows at fixed schema size — the
//    m^(w+1) factor of the linearized signature drives the exponential
//    behaviour behind the EXPTIME bound;
//  * decision cost along ID chains of growing length (chase depth).
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace rbda {
namespace {

void VerdictTable() {
  std::printf("--- Table 1 row 1: IDs (existence-check, EXPTIME) ---\n");
  std::printf("%-10s %-22s %-22s\n", "bound k", "Q1 (all 10k-profs)",
              "Q2 (existence)");
  for (uint32_t bound : {0u, 1u, 5u, 100u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(bound), &u);
    RBDA_CHECK(doc.ok());
    StatusOr<Decision> q1 = DecideMonotoneAnswerability(
        doc->schema, doc->queries.at("Q1"));
    StatusOr<Decision> q2 = DecideMonotoneAnswerability(
        doc->schema, doc->queries.at("Q2"));
    std::printf("%-10s %-22s %-22s\n",
                bound == 0 ? "none" : std::to_string(bound).c_str(),
                ShortVerdict(q1), ShortVerdict(q2));
  }
  std::printf("Expected shape: Q1 answerable only without a bound; Q2 "
              "always answerable; the value of k is irrelevant.\n\n");
}

// Decision cost as ID width grows (relations of arity w+1, IDs of width w).
void BM_DecideVsIdWidth(benchmark::State& state) {
  size_t width = state.range(0);
  Universe u;
  Rng rng(42);
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.min_arity = static_cast<uint32_t>(width);
  options.max_arity = static_cast<uint32_t>(width + 1);
  options.num_constraints = 3;
  options.num_methods = 3;
  options.max_id_width = width;
  options.prefix = "W" + std::to_string(width);
  ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
  ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);

  DecisionOptions d;
  d.linear_depth_cap = 2000;
  uint64_t gamma = 0, depth_bound = 0;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
    if (decision.ok()) {
      gamma = decision->gamma_size;
      depth_bound = decision->depth_bound;
    }
  }
  state.counters["lin_rules"] = static_cast<double>(gamma);
  state.counters["jk_depth_bound"] = static_cast<double>(depth_bound);
}
BENCHMARK(BM_DecideVsIdWidth)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

// Decision cost along chains R0 ⊆ R1 ⊆ ... (bounded first method).
void BM_DecideVsChainLength(benchmark::State& state) {
  size_t length = state.range(0);
  Universe u;
  ServiceSchema schema = GenerateChainSchema(
      &u, length, /*arity=*/2, /*bounded_prefix=*/1, /*bound=*/7,
      "Chain" + std::to_string(length));
  ConjunctiveQuery q = ChainHeadQuery(schema);
  DecisionOptions d;
  d.linear_depth_cap = 5000;
  Answerability verdict = Answerability::kUnknown;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
    if (decision.ok()) verdict = decision->verdict;
  }
  // Emptiness of the chain head is an existence check on the bounded head
  // method, so it stays answerable at every length; the chase still has to
  // explore the whole chain, which is what the series measures.
  state.counters["answerable"] =
      verdict == Answerability::kAnswerable ? 1 : 0;
}
BENCHMARK(BM_DecideVsChainLength)
    ->DenseRange(2, 12, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::VerdictTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "table1_row1_ids", rbda::SweepFamily::kId, 16, "P1");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
