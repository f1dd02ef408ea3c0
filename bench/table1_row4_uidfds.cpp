// Table 1, row 4 — UIDs + FDs: choice simplifiable (Thm 6.4), NP-hard and
// in EXPTIME (Thm 7.2); finite variant via the CKV finite closure
// (Cor 7.3).
//
// Reproduced series:
//  * verdict stability across bound values (choice simplifiability);
//  * cost of the separability pipeline vs schema size;
//  * cost and effect of the finite closure: how often the finite variant
//    upgrades a verdict on cyclic UID families.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "constraints/uid_reasoning.h"

namespace rbda {
namespace {

std::string UidFdFixture(uint32_t bound) {
  return R"(
relation R(a, b)
relation S(x)
method m on R inputs(0) limit )" +
         std::to_string(bound) + R"(
tgd S(x) -> R(x, y)
fd R: 0 -> 1
query Q() :- R("c1", "c2")
)";
}

void VerdictTable() {
  std::printf("--- Table 1 row 4: UIDs+FDs (choice, Thm 7.2) ---\n");
  std::printf("%-10s %-24s\n", "bound k", "R(c1,c2) lookup");
  for (uint32_t bound : {1u, 4u, 64u}) {
    Universe u;
    StatusOr<ParsedDocument> doc = ParseDocument(UidFdFixture(bound), &u);
    RBDA_CHECK(doc.ok());
    StatusOr<Decision> d =
        DecideMonotoneAnswerability(doc->schema, doc->queries.at("Q"));
    std::printf("%-10u %-24s\n", bound, ShortVerdict(d));
  }
  std::printf("Expected shape: answerable for every k (choice "
              "simplification + FD-determined output).\n");

  // Finite vs unrestricted on 30 random UID+FD schemas.
  int agree = 0, finite_only = 0, total = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Universe u;
    Rng rng(seed * 3 + 1);
    SchemaFamilyOptions options;
    options.num_relations = 3;
    options.max_arity = 2;
    options.num_constraints = 3;
    options.num_methods = 3;
    options.prefix = "FU" + std::to_string(seed);
    ServiceSchema schema = GenerateUidFdSchema(&u, options, &rng);
    ConjunctiveQuery q = GenerateQuery(schema, 2, 2, &rng);
    StatusOr<Decision> unrestricted = DecideMonotoneAnswerability(schema, q);
    StatusOr<Decision> finite = DecideFiniteMonotoneAnswerability(schema, q);
    if (!unrestricted.ok() || !finite.ok()) continue;
    if (!unrestricted->complete || !finite->complete) continue;
    ++total;
    if (unrestricted->verdict == finite->verdict) {
      ++agree;
    } else if (finite->verdict == Answerability::kAnswerable) {
      ++finite_only;
    }
  }
  std::printf("Finite vs unrestricted on %d random schemas: %d agree, %d "
              "answerable only finitely (closure reversals).\n",
              total, agree, finite_only);

  // A deterministic divergence (Cor 7.3): the UID R[1] ⊆ R[0] and the FD
  // b -> a form a cardinality cycle; over finite instances this reverses
  // into the FD a -> b, which makes the bound-1 lookup deterministic.
  const char* text = R"(
relation R(a, b)
method m on R inputs(0) limit 1
tgd R(x, y) -> R(y, z)
fd R: 1 -> 0
query Q() :- R("c1", "c2")
)";
  Universe u_unres, u_fin;
  StatusOr<ParsedDocument> d1 = ParseDocument(text, &u_unres);
  StatusOr<ParsedDocument> d2 = ParseDocument(text, &u_fin);
  RBDA_CHECK(d1.ok() && d2.ok());
  StatusOr<Decision> unres =
      DecideMonotoneAnswerability(d1->schema, d1->queries.at("Q"));
  StatusOr<Decision> fin =
      DecideFiniteMonotoneAnswerability(d2->schema, d2->queries.at("Q"));
  std::printf("CKV showcase: unrestricted=%s, finite=%s  -> %s\n\n",
              ShortVerdict(unres), ShortVerdict(fin),
              (unres.ok() && fin.ok() &&
               unres->verdict == Answerability::kNotAnswerable &&
               fin->verdict == Answerability::kAnswerable)
                  ? "finite closure flips the verdict, as Cor 7.3 allows"
                  : "UNEXPECTED");
}

void BM_SeparabilityPipeline(benchmark::State& state) {
  size_t relations = state.range(0);
  Universe u;
  Rng rng(17);
  SchemaFamilyOptions options;
  options.num_relations = relations;
  options.max_arity = 3;
  options.num_constraints = relations;
  options.num_methods = relations;
  options.prefix = "UF" + std::to_string(relations);
  ServiceSchema schema = GenerateUidFdSchema(&u, options, &rng);
  ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);
  DecisionOptions d;
  d.linear_depth_cap = 1500;
  for (auto _ : state) {
    StatusOr<Decision> decision = DecideMonotoneAnswerability(schema, q, d);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_SeparabilityPipeline)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

void BM_FiniteClosure(benchmark::State& state) {
  size_t relations = state.range(0);
  Universe u;
  Rng rng(23);
  SchemaFamilyOptions options;
  options.num_relations = relations;
  options.max_arity = 3;
  options.num_constraints = 2 * relations;
  options.num_methods = 2;
  options.prefix = "FC" + std::to_string(relations);
  ServiceSchema schema = GenerateUidFdSchema(&u, options, &rng);
  std::vector<Uid> uids;
  for (const Tgd& tgd : schema.constraints().tgds) {
    if (auto uid = UidFromTgd(tgd)) uids.push_back(*uid);
  }
  size_t closure_size = 0;
  for (auto _ : state) {
    UidFdClosure closure =
        FiniteClosure(uids, schema.constraints().fds, u);
    benchmark::DoNotOptimize(closure);
    closure_size = closure.uids.size() + closure.fds.size();
  }
  state.counters["closure_size"] = static_cast<double>(closure_size);
  state.counters["input_size"] =
      static_cast<double>(uids.size() + schema.constraints().fds.size());
}
BENCHMARK(BM_FiniteClosure)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rbda

int main(int argc, char** argv) {
  rbda::VerdictTable();
  rbda::PrintBenchMetricsJsonWithSweep(
      "table1_row4_uidfds", rbda::SweepFamily::kUidFd, 16, "P4");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
