// Table 1, row 5 — equality-free FO (here: arbitrary TGDs): choice
// simplifiable (Thm 6.3); answerability undecidable in general (Prop 8.2),
// so the engine is a budgeted proof search that is complete whenever the
// chase terminates.
//
// Reproduced series:
//  * Example 6.1 across bounds — the verdict is bound-independent and the
//    choice-simplified containment problem stays small;
//  * layered generalizations of Example 6.1 (a chain of S-layers feeding
//    membership tests) — proof-search cost vs depth;
//  * proof-search completeness rate on random TGD schemas (the undecidable
//    frontier: some instances must time out).
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace rbda {
namespace {

// A depth-d generalization of Example 6.1: T(y) & S_i(x) -> S_{i+1}(x),
// T(y) -> S_0(x), membership method on T, bounded access on S_0 only,
// query: is anything in S_d... answerable through the same choice-style
// argument chained d times.
std::string LayeredExample(size_t depth, uint32_t bound) {
  std::string text = "relation T(x)\n";
  for (size_t i = 0; i <= depth; ++i) {
    text += "relation S" + std::to_string(i) + "(x)\n";
  }
  text += "method mtS on S0 inputs() limit " + std::to_string(bound) + "\n";
  text += "method mtT on T inputs(0)\n";
  for (size_t i = 0; i < depth; ++i) {
    text += "tgd T(y) & S" + std::to_string(i) + "(x) -> S" +
            std::to_string(i + 1) + "(x)\n";
  }
  text += "tgd T(y) & S0(x) -> T(x)\n";
  text += "tgd T(y) -> S0(x)\n";
  text += "query Q() :- T(y)\n";
  return text;
}

void VerdictTable() {
  std::printf("--- Table 1 row 5: equality-free FO / TGDs (choice, "
              "undecidable in general) ---\n");
  std::printf("Example 6.1 verdicts: %-8s %-14s %-10s\n", "bound", "verdict",
              "Γ TGDs");
  for (uint32_t bound : {1u, 7u, 50u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(Example61Text(bound), &u);
    RBDA_CHECK(doc.ok());
    StatusOr<Decision> d =
        DecideMonotoneAnswerability(doc->schema, doc->queries.at("Q"));
    std::printf("                      %-8u %-14s %-10zu\n", bound,
                ShortVerdict(d), d.ok() ? d->gamma_size : 0);
  }
  std::printf("Expected shape: answerable at every bound, with an identical "
              "choice-simplified containment problem.\n\n");
}

void BM_LayeredProofSearch(benchmark::State& state) {
  size_t depth = state.range(0);
  Universe u;
  StatusOr<ParsedDocument> doc =
      ParseDocument(LayeredExample(depth, 3), &u);
  RBDA_CHECK(doc.ok());
  DecisionOptions options;
  options.chase.max_rounds = 200;
  Answerability verdict = Answerability::kUnknown;
  for (auto _ : state) {
    StatusOr<Decision> d = DecideMonotoneAnswerability(
        doc->schema, doc->queries.at("Q"), options);
    benchmark::DoNotOptimize(d);
    if (d.ok()) verdict = d->verdict;
  }
  state.counters["answerable"] =
      verdict == Answerability::kAnswerable ? 1 : 0;
}
BENCHMARK(BM_LayeredProofSearch)
    ->DenseRange(1, 7, 2)
    ->Unit(benchmark::kMillisecond);

void BM_RandomTgdCompleteness(benchmark::State& state) {
  // Random TGD schemas: measure the fraction decided within a fixed budget
  // (the practical face of undecidability).
  size_t budget_rounds = state.range(0);
  int decided = 0, total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Universe u;
    Rng rng(total + 1);
    SchemaFamilyOptions options;
    options.num_relations = 3;
    options.max_arity = 2;
    options.num_constraints = 3;
    options.num_methods = 2;
    options.prefix = "T" + std::to_string(total);
    // IDs are TGDs too; mix in a couple of multi-atom-body TGDs.
    ServiceSchema schema = GenerateIdSchema(&u, options, &rng);
    Term x = u.FreshVariable(), y = u.FreshVariable();
    RelationId r0 = schema.relations()[0];
    RelationId r1 = schema.relations()[1 % schema.relations().size()];
    std::vector<Term> args0, args1;
    for (uint32_t p = 0; p < u.Arity(r0); ++p) args0.push_back(p == 0 ? x : y);
    for (uint32_t p = 0; p < u.Arity(r1); ++p) args1.push_back(x);
    schema.constraints().tgds.emplace_back(
        std::vector<Atom>{Atom(r0, args0), Atom(r1, args1)},
        std::vector<Atom>{Atom(r1, std::vector<Term>(u.Arity(r1), y))});
    ConjunctiveQuery q = GenerateQuery(schema, 1, 2, &rng);
    DecisionOptions d;
    d.chase.max_rounds = budget_rounds;
    state.ResumeTiming();

    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
    ++total;
    if (decision.ok() && decision->complete) ++decided;
  }
  state.counters["decided_pct"] =
      total == 0 ? 0 : 100.0 * decided / total;
}
BENCHMARK(BM_RandomTgdCompleteness)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::VerdictTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "table1_row5_eqfree", rbda::SweepFamily::kChain, 16, "P5");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
