// Table 1, row 3 — FDs: FD simplifiable (Thm 4.5), NP-complete (Thm 5.2).
//
// Reproduced series:
//  * the Example 1.5 verdict pair (determined address answerable, phone
//    not) and its stability across bound values;
//  * chase rounds stay polynomial (the heart of the Thm 5.2 NP bound):
//    rounds and decision time vs relation arity and vs number of FDs.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace rbda {
namespace {

std::string FdFixture(uint32_t bound) {
  return R"(
relation Udirectory(id, address, phone)
method ud2 on Udirectory inputs(0) limit )" +
         std::to_string(bound) + R"(
fd Udirectory: 0 -> 1
query Q3(a) :- Udirectory("12345", a, p)
query Qphone(p) :- Udirectory("12345", a, p)
)";
}

void VerdictTable() {
  std::printf("--- Table 1 row 3: FDs (FD simplification, NP) ---\n");
  std::printf("%-10s %-24s %-24s\n", "bound k", "Q3 (address; FD-det.)",
              "Qphone (not determined)");
  for (uint32_t bound : {1u, 3u, 50u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(FdFixture(bound), &u);
    RBDA_CHECK(doc.ok());
    FrozenQuery q3 = FreezeQuery(doc->queries.at("Q3"), &u);
    FrozenQuery qp = FreezeQuery(doc->queries.at("Qphone"), &u);
    StatusOr<Decision> d3 =
        DecideMonotoneAnswerability(doc->schema, q3.boolean_q);
    StatusOr<Decision> dp =
        DecideMonotoneAnswerability(doc->schema, qp.boolean_q);
    std::printf("%-10u %-24s %-24s\n", bound, ShortVerdict(d3),
                ShortVerdict(dp));
  }
  std::printf("Expected shape: the FD-determined projection is answerable "
              "for every k; the rest never is.\n\n");
}

// Wide relation with a key FD: id determines positions 1..arity-1.
void BM_DecideVsArity(benchmark::State& state) {
  uint32_t arity = static_cast<uint32_t>(state.range(0));
  Universe u;
  ServiceSchema schema(&u);
  RelationId r =
      *schema.AddRelation("Wide" + std::to_string(arity), arity);
  for (uint32_t p = 1; p < arity; ++p) {
    schema.constraints().fds.emplace_back(r, std::vector<uint32_t>{0}, p);
  }
  AccessMethod m;
  m.name = "lookup" + std::to_string(arity);
  m.relation = r;
  m.input_positions = {0};
  m.bound_kind = BoundKind::kResultBound;
  m.bound = 1;
  RBDA_CHECK(schema.AddMethod(std::move(m)).ok());

  // Query: the full record of a known key.
  std::vector<Term> args{u.Constant("key")};
  for (uint32_t p = 1; p < arity; ++p) {
    args.push_back(u.Constant("v" + std::to_string(p)));
  }
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r, std::move(args))});

  uint64_t rounds = 0;
  Answerability verdict = Answerability::kUnknown;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q);
    benchmark::DoNotOptimize(decision);
    if (decision.ok()) {
      rounds = decision->chase_rounds;
      verdict = decision->verdict;
    }
  }
  state.counters["chase_rounds"] = static_cast<double>(rounds);
  state.counters["answerable"] =
      verdict == Answerability::kAnswerable ? 1 : 0;
}
BENCHMARK(BM_DecideVsArity)->DenseRange(2, 10, 2)->Unit(benchmark::kMillisecond);

void BM_DecideVsNumFds(benchmark::State& state) {
  size_t num_fds = state.range(0);
  Universe u;
  Rng rng(5);
  SchemaFamilyOptions options;
  options.num_relations = 3;
  options.min_arity = 3;
  options.max_arity = 4;
  options.num_constraints = num_fds;
  options.num_methods = 3;
  options.prefix = "N" + std::to_string(num_fds);
  ServiceSchema schema = GenerateFdSchema(&u, options, &rng);
  ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);
  uint64_t rounds = 0;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q);
    benchmark::DoNotOptimize(decision);
    if (decision.ok()) rounds = decision->chase_rounds;
  }
  state.counters["chase_rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_DecideVsNumFds)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::VerdictTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "table1_row3_fds", rbda::SweepFamily::kFd, 16, "P3");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
