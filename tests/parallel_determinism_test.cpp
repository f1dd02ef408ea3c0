// Property test for the parallel determinism contract
// (docs/PERFORMANCE.md): at a fixed seed, the fuzz driver and the oracle
// validators produce identical results at any job count.
#include <map>
#include <string>
#include <vector>

#include "base/task_pool.h"
#include "core/plan_synthesis.h"
#include "fuzz/fuzzer.h"
#include "gtest/gtest.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "runtime/oracle.h"

namespace rbda {
namespace {

// Everything observable about a fuzz report, flattened for comparison.
std::vector<std::string> Flatten(const FuzzReport& report) {
  std::vector<std::string> out;
  out.push_back("cases=" + std::to_string(report.cases));
  for (const FuzzFinding& f : report.findings) {
    out.push_back("case=" + std::to_string(f.case_index) +
                  " seed=" + std::to_string(f.case_seed) +
                  " family=" + FuzzFamilyName(f.family) +
                  " checker=" + f.checker + " detail=" + f.detail);
    out.push_back("document:" + f.document);
    out.push_back("shrunk:" + f.shrunk);
  }
  return out;
}

FuzzOptions BaseOptions(uint64_t seed, uint64_t iters) {
  FuzzOptions options;
  options.seed = seed;
  options.iters = iters;
  options.shrink = true;
  return options;
}

TEST(ParallelDeterminismTest, CleanFuzzRunIdenticalAcrossJobCounts) {
  FuzzOptions serial = BaseOptions(/*seed=*/11, /*iters=*/40);
  serial.jobs = 1;
  FuzzOptions parallel = serial;
  parallel.jobs = 8;

  FuzzReport a = RunFuzzer(serial);
  FuzzReport b = RunFuzzer(parallel);
  EXPECT_EQ(Flatten(a), Flatten(b));
}

TEST(ParallelDeterminismTest, FindingsAndShrunkReprosIdentical) {
  // Injected simplification bug guarantees findings, exercising the
  // finding/shrink path of the aggregation.
  FuzzOptions serial = BaseOptions(/*seed=*/3, /*iters=*/30);
  serial.jobs = 1;
  serial.checkers.inject_simplification_bug = true;
  FuzzOptions parallel = serial;
  parallel.jobs = 8;

  FuzzReport a = RunFuzzer(serial);
  FuzzReport b = RunFuzzer(parallel);
  ASSERT_FALSE(a.findings.empty())
      << "injected bug should produce findings";
  EXPECT_EQ(Flatten(a), Flatten(b));
}

TEST(ParallelDeterminismTest, JobCountDoesNotChangeFindingOrder) {
  FuzzOptions options = BaseOptions(/*seed=*/3, /*iters=*/30);
  options.jobs = 5;  // odd job count: uneven final batch
  options.checkers.inject_simplification_bug = true;
  FuzzReport report = RunFuzzer(options);
  for (size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_LT(report.findings[i - 1].case_index,
              report.findings[i].case_index)
        << "findings must be sorted by case index";
  }
}

TEST(ParallelDeterminismTest, ValidatePlanIdenticalAcrossJobCounts) {
  // A tiny schema with a bounded method: the plan executes under every
  // selector, and the verdict must not depend on the job count.
  const char* kDoc = R"(
relation R(x)
method mr on R inputs() limit 2
query Q() :- R(x)
fact R("a")
fact R("b")
fact R("c")
)";
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(kDoc, &u);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const ConjunctiveQuery& q = doc->queries.at("Q");
  StatusOr<Plan> plan = SynthesizeUniversalPlan(doc->schema, q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  PlanValidation serial = ValidatePlan(doc->schema, *plan, q, doc->data,
                                       /*num_random_selections=*/8,
                                       /*seed=*/5, /*jobs=*/1);
  PlanValidation parallel = ValidatePlan(doc->schema, *plan, q, doc->data,
                                         /*num_random_selections=*/8,
                                         /*seed=*/5, /*jobs=*/8);
  EXPECT_EQ(serial.answers, parallel.answers);
  EXPECT_EQ(serial.mismatch, parallel.mismatch);
  EXPECT_EQ(serial.failure, parallel.failure);
}

TEST(ParallelDeterminismTest, HistogramExactUnderParallelForHammer) {
  // The histogram aggregates feeding the profile.* quantiles must be
  // independent of the job count: recording the same multiset under a
  // contended ParallelFor yields bit-identical buckets/count/sum/min/max
  // to the serial Record() loop.
  constexpr size_t kN = 50000;
  auto value = [](size_t i) {
    return static_cast<uint64_t>(i) * 2654435761u % 1000003 + 1;
  };

  Histogram reference;
  for (size_t i = 0; i < kN; ++i) reference.Record(value(i));

  for (size_t jobs : {size_t{1}, size_t{8}}) {
    Histogram hammered;
    Status status = ParallelFor(kN, jobs, [&](size_t i) {
      hammered.Record(value(i));
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    HistogramSnapshot got = hammered.TakeSnapshot();
    HistogramSnapshot want = reference.TakeSnapshot();
    EXPECT_EQ(got.count, want.count) << "jobs=" << jobs;
    EXPECT_EQ(got.sum, want.sum) << "jobs=" << jobs;
    EXPECT_EQ(got.min, want.min) << "jobs=" << jobs;
    EXPECT_EQ(got.max, want.max) << "jobs=" << jobs;
    EXPECT_EQ(got.buckets, want.buckets) << "jobs=" << jobs;
    EXPECT_EQ(got.Quantile(0.999), want.Quantile(0.999)) << "jobs=" << jobs;
  }
}

// The chase.* and containment.* counters a fuzz pass adds to the default
// registry, by name.
std::map<std::string, uint64_t> EngineCounterDeltas(
    const FuzzOptions& options) {
  auto engine_counters = [] {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] :
         MetricsRegistry::Default().CounterValues()) {
      if (name.rfind("chase.", 0) == 0 ||
          name.rfind("containment.", 0) == 0) {
        out[name] = value;
      }
    }
    return out;
  };
  std::map<std::string, uint64_t> before = engine_counters();
  RunFuzzer(options);
  std::map<std::string, uint64_t> deltas = engine_counters();
  for (auto& [name, value] : deltas) value -= before[name];
  return deltas;
}

TEST(ParallelDeterminismTest, ChaseCountersIdenticalAcrossJobCounts) {
  // Every engine counter is a shared relaxed atomic, so the counts a pass
  // leaves behind must not depend on how its cases were spread over
  // worker threads.
  FuzzOptions serial = BaseOptions(/*seed=*/11, /*iters=*/40);
  serial.jobs = 1;
  FuzzOptions parallel = serial;
  parallel.jobs = 8;

  std::map<std::string, uint64_t> a = EngineCounterDeltas(serial);
  std::map<std::string, uint64_t> b = EngineCounterDeltas(parallel);
  EXPECT_GT(a["chase.rounds"], 0u);
  EXPECT_GT(a["containment.checks"], 0u);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rbda
