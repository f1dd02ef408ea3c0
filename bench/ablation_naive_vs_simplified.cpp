// Ablation A — why schema simplification matters (§3 vs §4/§6).
//
// The naive reduction encodes a result bound k through "∃≥j" lower-bound
// axioms whose chase materializes up to k accessed-witness facts per
// binding; the simplified reductions replace all of that by a single
// bound-independent rule. Reproduced series (the paper's qualitative claim
// after Example 3.5):
//  * chase size and rounds of the naive reduction grow linearly in k;
//  * the simplified pipeline is k-independent;
//  * decision time crossover as k grows.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace rbda {
namespace {

void SizeTable() {
  std::printf("--- Ablation A: naive §3 reduction vs simplification ---\n");
  std::printf("%-8s | %-12s %-12s | %-12s %-12s\n", "bound k",
              "naive facts", "naive rounds", "simpl. facts", "simpl. rules");
  for (uint32_t k : {1u, 5u, 10u, 25u, 50u, 100u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(k), &u);
    RBDA_CHECK(doc.ok());
    ConjunctiveQuery q1 =
        ConjunctiveQuery::Boolean(doc->queries.at("Q1").atoms());

    DecisionOptions naive;
    naive.force_naive = true;
    StatusOr<Decision> n = DecideMonotoneAnswerability(doc->schema, q1, naive);

    StatusOr<Decision> s = DecideMonotoneAnswerability(doc->schema, q1);
    std::printf("%-8u | %-12llu %-12llu | %-12llu %-12zu\n", k,
                n.ok() ? static_cast<unsigned long long>(n->chase_facts) : 0,
                n.ok() ? static_cast<unsigned long long>(n->chase_rounds) : 0,
                s.ok() ? static_cast<unsigned long long>(s->chase_facts) : 0,
                s.ok() ? s->gamma_size : 0);
    RBDA_CHECK(n.ok() && s.ok() && n->verdict == s->verdict);
  }
  std::printf("Expected shape: naive chase size grows ~linearly with k; the "
              "simplified pipeline never looks at k.\n\n");
}

void BM_NaiveVsBound(benchmark::State& state) {
  uint32_t k = static_cast<uint32_t>(state.range(0));
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(k), &u);
  RBDA_CHECK(doc.ok());
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc->queries.at("Q1").atoms());
  DecisionOptions naive;
  naive.force_naive = true;
  for (auto _ : state) {
    StatusOr<Decision> d = DecideMonotoneAnswerability(doc->schema, q1, naive);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NaiveVsBound)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_SimplifiedVsBound(benchmark::State& state) {
  uint32_t k = static_cast<uint32_t>(state.range(0));
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(UniversityText(k), &u);
  RBDA_CHECK(doc.ok());
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc->queries.at("Q1").atoms());
  for (auto _ : state) {
    StatusOr<Decision> d = DecideMonotoneAnswerability(doc->schema, q1);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SimplifiedVsBound)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::SizeTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "ablation_naive_vs_simplified", rbda::SweepFamily::kId, 12, "AN");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
