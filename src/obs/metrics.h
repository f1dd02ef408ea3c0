// Process-wide metrics: named monotonic counters and value distributions.
//
// The registry is the single source of truth for runtime statistics across
// the chase, containment, answerability, and executor layers. Call sites
// resolve a metric once (typically into a function-local static pointer)
// and then increment through the handle; increments are relaxed atomics, so
// the hot path costs one atomic add and never allocates or takes a lock.
// Handles stay valid for the life of the registry — Reset() zeroes values
// but never invalidates pointers.
//
// Metric names form a stable, documented namespace (see
// docs/OBSERVABILITY.md): dot-separated, lower-case, e.g. "chase.rounds",
// "containment.hom_checks", "executor.access_calls". Timings are recorded
// as microsecond distributions named "*_us".
#ifndef RBDA_OBS_METRICS_H_
#define RBDA_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace rbda {

/// A monotonic counter. Thread-safe; increments are relaxed atomics.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// A value distribution backed by a log-linear Histogram: count / sum /
/// min / max plus bounded-error quantiles (p50/p90/p99/...; see
/// histogram.h for the error bound). Thread-safe; Record() is a handful
/// of relaxed atomic operations.
class Distribution {
 public:
  void Record(uint64_t v) { hist_.Record(v); }

  uint64_t count() const { return hist_.count(); }
  uint64_t sum() const { return hist_.sum(); }
  /// Min/max of recorded values; 0 when nothing has been recorded.
  uint64_t min() const { return hist_.min(); }
  uint64_t max() const { return hist_.max(); }
  /// Bounded-error quantile estimate (Histogram::Quantile).
  uint64_t Quantile(double q) const { return hist_.Quantile(q); }

  const Histogram& histogram() const { return hist_; }

 private:
  friend class MetricsRegistry;
  void Reset() { hist_.Reset(); }
  Histogram hist_;
};

/// A point-in-time view of one distribution, for snapshots. The quantile
/// fields are Histogram estimates (within kMaxRelativeError of exact).
struct DistributionStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

/// A last-written-value metric for level-style readings (cache occupancy,
/// queue depth). Thread-safe; Set/value are relaxed atomics.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide default registry used by the library's built-in
  /// instrumentation. Never destroyed (leaked intentionally so handles in
  /// static storage stay valid during shutdown).
  static MetricsRegistry& Default();

  /// Returns the counter/distribution/gauge named `name`, registering it
  /// on first use. The returned pointer is stable for the registry's
  /// lifetime. Registration takes a lock; cache the handle on hot paths.
  Counter* GetCounter(std::string_view name);
  Distribution* GetDistribution(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  /// Zeroes every metric. Handles stay valid.
  void Reset();

  /// Stable-ordered (lexicographic by name) copies of current values.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, DistributionStats>> DistributionValues()
      const;
  std::vector<std::pair<std::string, uint64_t>> GaugeValues() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Distribution>, std::less<>>
      distributions_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// RAII wall-clock timer feeding a distribution in microseconds, backed by
/// steady_clock. A null distribution makes the timer a no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Distribution* dist)
      : dist_(dist), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (dist_ != nullptr) dist_->Record(ElapsedMicros());
  }

  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  Distribution* dist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rbda

#endif  // RBDA_OBS_METRICS_H_
