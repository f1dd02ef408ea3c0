// Table 1, row 6 — frontier-guarded TGDs: choice simplifiable (Thm 6.3),
// 2EXPTIME-complete (Thm 7.1).
//
// Our engine realizes the upper bound as a budgeted chase proof search on
// the choice-simplified schema (complete whenever the chase terminates,
// certificate-producing always). Reproduced series:
//  * verdicts on an FGTGD family generalizing Example 6.1 with guarded side
//    atoms, stable across result bounds;
//  * proof-search cost vs the number of guarded rules;
//  * growth of the chase (facts / rounds) on answerable vs refutable
//    instances.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace rbda {
namespace {

// An Example 6.1-style family in frontier-guarded form: if anything is a
// Member, every Pool element is too, and membership implies a non-empty
// pool. The Pool listing is bounded; membership is checkable. The `extra`
// Aux layers scale the rule set without breaking chase termination.
std::string FgtgdFixture(uint32_t bound, size_t extra_rules) {
  std::string text = R"(
relation Member(x)
relation Pool(x)
method mtPool on Pool inputs() limit )" +
                     std::to_string(bound) + R"(
method mtMember on Member inputs(0)
tgd Member(y) & Pool(x) -> Member(x)
tgd Member(y) -> Pool(z)
)";
  for (size_t i = 0; i < extra_rules; ++i) {
    text += "relation Aux" + std::to_string(i) + "(a, b)\n";
    text += "tgd Member(y) & Pool(x) -> Aux" + std::to_string(i) +
            "(x, x)\n";
    text += "tgd Aux" + std::to_string(i) + "(a, b) -> Pool(a)\n";
  }
  text += "query Q() :- Member(x)\n";
  return text;
}

void VerdictTable() {
  std::printf("--- Table 1 row 6: frontier-guarded TGDs (choice, 2EXPTIME) "
              "---\n");
  std::printf("%-10s %-14s %-14s %-12s\n", "bound k", "verdict", "complete?",
              "chase facts");
  for (uint32_t bound : {1u, 9u, 99u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(FgtgdFixture(bound, 0), &u);
    RBDA_CHECK(doc.ok());
    StatusOr<Decision> d =
        DecideMonotoneAnswerability(doc->schema, doc->queries.at("Q"));
    std::printf("%-10u %-14s %-14s %-12llu\n", bound, ShortVerdict(d),
                d.ok() && d->complete ? "decided" : "budget",
                d.ok() ? static_cast<unsigned long long>(d->chase_facts) : 0);
  }
  std::printf("Expected shape: identical verdicts for every k — only the "
              "choice-simplified problem is ever solved.\n\n");
}

void BM_ProofSearchVsRules(benchmark::State& state) {
  size_t extra = state.range(0);
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(FgtgdFixture(2, extra), &u);
  RBDA_CHECK(doc.ok());
  DecisionOptions options;
  options.chase.max_rounds = 60;
  options.chase.max_facts = 50000;
  uint64_t facts = 0;
  for (auto _ : state) {
    StatusOr<Decision> d = DecideMonotoneAnswerability(
        doc->schema, doc->queries.at("Q"), options);
    benchmark::DoNotOptimize(d);
    if (d.ok()) facts = d->chase_facts;
  }
  state.counters["chase_facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_ProofSearchVsRules)
    ->DenseRange(0, 6, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::VerdictTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "table1_row6_fgtgds", rbda::SweepFamily::kChain, 16, "P6");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
