// Golden test of the generic chase. For every query of the first 2,000
// fuzz-corpus documents (seed 1, up to two mutations) it builds the naive
// §3 reduction the force_naive decider builds (ElimUB, then the naive
// AMonDet reduction with its cardinality rules) and, for FD-only
// documents, the FD-simplified reduction, and runs RunChaseUntil on each
// at the decide_mix budgets (40 rounds, 4,000 facts). The FNV-1a digest
// covers each run's status, exhausted budget, goal flag, rounds,
// tgd_steps, egd_merges and goal_checks, and every fact of the result in
// ForEachFact order with raw term ids, null ids included. Any change to
// which facts the chase creates, in which order, or which nulls it mints
// moves the digest. Reductions without FDs also fold the countermodel
// CounterModelRefutesGoals saturates, which shares the cardinality
// rounds' binding order.
#include <cstdint>
#include <optional>
#include <string>

#include "chase/chase.h"
#include "chase/relevance.h"
#include "core/answerability.h"
#include "core/reduction.h"
#include "core/simplification.h"
#include "fuzz/fuzzer.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace rbda {
namespace {

constexpr uint64_t kCorpusDocuments = 2000;
// Recorded with the engine that rebuilt a std::map per FD call and per
// cardinality round; the delta-driven FD check and cardinality rounds must
// leave it unchanged. 471 EGD merges, 1,642 runs with cardinality rules.
constexpr uint64_t kRecordedDigest = 0x8242366731cf680aULL;
constexpr size_t kRecordedRuns = 2266;

uint64_t Fnv1a(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void FoldFacts(const Instance& instance, uint64_t* digest) {
  instance.ForEachFact([&](FactRef f) {
    *digest = Fnv1a(*digest, f.relation());
    for (Term t : f.args()) *digest = Fnv1a(*digest, t.raw());
  });
}

// Chases one reduction and folds its result into `digest`; without FDs,
// also the witness-reuse countermodel the containment driver would try.
void FoldChase(const AmonDetReduction& red, Universe* u, uint64_t* digest) {
  ChaseOptions options;
  options.max_rounds = 40;
  options.max_facts = 4000;
  bool goal_reached = false;
  ChaseResult r =
      RunChaseUntil(red.start, red.gamma, red.q_prime.atoms(), u,
                    &goal_reached, options, red.cardinality_rules);
  for (uint64_t word :
       {static_cast<uint64_t>(r.status), static_cast<uint64_t>(r.exhausted),
        uint64_t{goal_reached}, r.rounds, r.tgd_steps, r.egd_merges,
        r.goal_checks, uint64_t{r.instance.NumFacts()}}) {
    *digest = Fnv1a(*digest, word);
  }
  FoldFacts(r.instance, digest);
  if (!red.gamma.fds.empty()) return;
  std::optional<Instance> model = CounterModelRefutesGoals(
      red.start, {red.q_prime.atoms()}, red.gamma.tgds,
      red.cardinality_rules, u);
  *digest = Fnv1a(*digest, uint64_t{model.has_value()});
  if (model.has_value()) FoldFacts(*model, digest);
}

// Builds the reductions of every query of `text` in one fresh Universe
// and chases each; a reduction that fails folds a marker instead.
void FoldDocument(const std::string& text, uint64_t* digest, size_t* runs) {
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(text, &u);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Fragment fragment = doc->schema.constraints().Classify();
  for (const auto& [name, q] : doc->queries) {
    FrozenQuery frozen = FreezeQuery(q, &u);
    ReductionOptions naive;
    naive.mode = ReductionMode::kNaive;
    std::vector<std::pair<ServiceSchema, ReductionOptions>> work;
    work.emplace_back(ElimUB(doc->schema), naive);
    if (fragment == Fragment::kFdsOnly) {
      ReductionOptions rewritten;
      rewritten.mode = ReductionMode::kRewritten;
      work.emplace_back(FdSimplification(doc->schema), rewritten);
    }
    for (const auto& [schema, options] : work) {
      StatusOr<AmonDetReduction> red = BuildAmonDetReduction(
          schema, frozen.boolean_q, options, &frozen.accessible_constants);
      if (!red.ok()) {
        *digest = Fnv1a(*digest, 0xbad);
        continue;
      }
      FoldChase(*red, &u, digest);
      ++*runs;
    }
  }
}

TEST(ChaseGoldenTest, NaiveAndFdReductionsMatchRecordedDigest) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  size_t runs = 0;
  FuzzOptions fuzz;
  fuzz.seed = 1;
  fuzz.max_mutations = 2;
  for (uint64_t i = 0; i < kCorpusDocuments; ++i) {
    FoldDocument(GenerateCaseDocument(fuzz, i, nullptr), &digest, &runs);
  }
  EXPECT_EQ(runs, kRecordedRuns);
  EXPECT_EQ(digest, kRecordedDigest) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace rbda
