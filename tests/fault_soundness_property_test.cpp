// Property sweep for the robustness acceptance bar: across hundreds of
// seeded (schema, plan, fault-plan) triples, a monotone plan degraded in
// partial-result mode must produce a subset of its fault-free output, and
// transient-only faults with sufficient retries must converge to exact
// equality. The fault-injection checker packages both assertions
// (fuzz/checkers.h); this test drives it through the fuzzer's generator
// families so each case is an independently seeded triple.
#include "fuzz/fuzzer.h"

#include "gtest/gtest.h"

namespace rbda {
namespace {

TEST(FaultSoundnessPropertyTest, HundredsOfSeededTriplesHaveNoFindings) {
  FuzzOptions options;
  options.seed = 20260805;
  options.iters = 100;
  options.shrink = false;
  // Only the fault-injection checker: each case runs the synthesized plan
  // under `fault_plans` mutated fault plans plus one deterministic
  // transient-only convergence plan and one non-monotone rejection probe,
  // so 100 cases x 5 fault plans >= 500 seeded triples.
  CheckerOptions& c = options.checkers;
  c.check_naive = c.check_simplification = c.check_oracle = c.check_plan =
      c.check_chase = c.check_roundtrip = false;
  c.check_fault_injection = true;
  c.fault_plans = 5;

  FuzzReport report = RunFuzzer(options);
  EXPECT_EQ(report.cases, options.iters);
  for (const FuzzFinding& f : report.findings) {
    ADD_FAILURE() << "case " << f.case_index << " (" << f.checker
                  << "): " << f.detail << "\n"
                  << f.document;
  }
}

TEST(FaultSoundnessPropertyTest, DifferentMasterSeedsAlsoPass) {
  FuzzOptions options;
  options.seed = 7;
  options.iters = 25;
  options.shrink = false;
  CheckerOptions& c = options.checkers;
  c.check_naive = c.check_simplification = c.check_oracle = c.check_plan =
      c.check_chase = c.check_roundtrip = false;
  c.check_fault_injection = true;
  c.fault_plans = 4;
  FuzzReport report = RunFuzzer(options);
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().checker << ": "
      << report.findings.front().detail;
}

}  // namespace
}  // namespace rbda
