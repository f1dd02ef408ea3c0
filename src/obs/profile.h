// Per-decide cost attribution: which containment checks ate the time.
//
// The aggregate registry (metrics.h) answers "how much" — the profiler
// answers "which one". Every containment check reports a
// ContainmentCheckRecord (duration, chase rounds, facts created,
// hom-checks, goal relation, constraints pruned) tagged with the active
// profile label — "query:<name>" under the CLI, "decide#<n>:<fragment>"
// by default — and the profiler keeps:
//
//   * a duration histogram (quantiles for the profile.* bench section),
//   * running totals (checks, rounds, facts, hom-checks, pruned),
//   * a bounded top-K table of the slowest checks ever seen,
//
// and emits a structured "containment.slow_check" trace event for any
// check at or above the configurable slow-check threshold.
//
// The default profiler is always on (one short mutex hold per containment
// check — noise next to a chase) so bench binaries and the CLI read it
// without any enablement plumbing.
#ifndef RBDA_OBS_PROFILE_H_
#define RBDA_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace rbda {

/// One containment check's cost, as reported by the containment engines.
struct ContainmentCheckRecord {
  std::string label;          // active profile label ("" = unattributed)
  std::string goal_relation;  // relation of the first goal atom
  uint64_t duration_us = 0;
  uint64_t rounds = 0;      // chase rounds run for this check
  uint64_t facts = 0;       // facts in the chased instance
  uint64_t hom_checks = 0;  // goal homomorphism checks performed
  uint64_t pruned_constraints = 0;  // dropped by relevance pruning
};

/// Point-in-time copy of the profiler's aggregates.
struct QueryProfileSnapshot {
  uint64_t checks = 0;
  uint64_t total_us = 0;
  uint64_t rounds = 0;
  uint64_t facts = 0;
  uint64_t hom_checks = 0;
  uint64_t pruned_constraints = 0;
  HistogramSnapshot check_us;                      // duration distribution
  std::vector<ContainmentCheckRecord> top_checks;  // slowest first
};

class QueryProfiler {
 public:
  /// Slowest checks retained in the top-K table.
  static constexpr size_t kTopK = 10;

  /// The process-wide profiler every containment engine reports into.
  /// Never destroyed (same lifetime discipline as MetricsRegistry).
  static QueryProfiler& Default();

  /// Records one containment check. Thread-safe; also emits the
  /// "containment.slow_check" trace event when tracing is enabled and
  /// `record.duration_us >= slow_check_threshold_us()`.
  void RecordCheck(ContainmentCheckRecord record);

  /// Checks at or above this duration emit a containment.slow_check
  /// trace event (default 100ms). 0 traces every check.
  void set_slow_check_threshold_us(uint64_t us);
  uint64_t slow_check_threshold_us() const;

  QueryProfileSnapshot TakeSnapshot() const;

  /// Serializes a snapshot as the profile JSON document written by
  /// `rbda_cli decide --profile=path`:
  ///   {"containment":{"checks":..,"total_us":..,
  ///                   "rounds":..,"facts":..,"hom_checks":..,
  ///                   "pruned_constraints":..,
  ///                   "p50_us":..,"p90_us":..,"p99_us":..,"p999_us":..,
  ///                   "max_us":..},
  ///    "top_checks":[{"label":..,"goal_relation":..,"duration_us":..,
  ///                   "rounds":..,"facts":..,"hom_checks":..,
  ///                   "pruned_constraints":..}, ...]}
  std::string ToJson() const;

  /// The "containment" sub-object of ToJson() alone — the profile.*
  /// section bench binaries embed in BENCH_JSON.
  std::string SummaryJson() const;

  /// Zeroes everything (totals, histogram, top-K). Threshold unchanged.
  void Reset();

 private:
  mutable std::mutex mu_;
  uint64_t checks_ = 0;
  uint64_t rounds_ = 0;
  uint64_t facts_ = 0;
  uint64_t hom_checks_ = 0;
  uint64_t pruned_constraints_ = 0;
  Histogram check_us_;
  std::vector<ContainmentCheckRecord> top_checks_;  // sorted, slowest first
  std::atomic<uint64_t> slow_check_threshold_us_{100000};
};

/// RAII profile label: pushes `label` as the calling thread's active
/// attribution label for the scope (labels nest; the innermost wins).
class ScopedProfileLabel {
 public:
  explicit ScopedProfileLabel(std::string_view label);
  ScopedProfileLabel(const ScopedProfileLabel&) = delete;
  ScopedProfileLabel& operator=(const ScopedProfileLabel&) = delete;
  ~ScopedProfileLabel();

 private:
  std::string previous_;
};

/// The calling thread's active profile label ("" when none).
std::string_view CurrentProfileLabel();

}  // namespace rbda

#endif  // RBDA_OBS_PROFILE_H_
