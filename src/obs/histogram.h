// Mergeable log-linear (HDR-style) histogram with a bounded relative
// error, the quantile engine behind every `*_us` distribution in the
// metrics registry.
//
// Bucket layout: values below kSubBuckets get one exact bucket each;
// above that, each power-of-two range [2^k, 2^{k+1}) is split into
// kSubBuckets equal linear buckets of width 2^{k - log2(kSubBuckets)}.
// Every recorded value therefore lands in a bucket whose width is at most
// value / kSubBuckets, which bounds the quantile estimation error:
// Quantile(q) returns a value in the same bucket as the true q-quantile
// of the recorded multiset, so
//
//   |Quantile(q) - exact_quantile(q)| <= exact_quantile(q) / kSubBuckets
//
// (and is exact for values < kSubBuckets). The full uint64 range is
// covered with kNumBuckets ≈ 1.9k buckets, ~15 KB of atomics per
// histogram.
//
// Thread-safety mirrors Counter (metrics.h): Record() is a handful of
// relaxed atomic adds on shared buckets.
#ifndef RBDA_OBS_HISTOGRAM_H_
#define RBDA_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rbda {

/// Plain-value copy of a histogram, for merging and offline analysis.
/// Merge is commutative and associative bucket-wise addition, so
/// snapshots taken on different threads/processes/shards can be combined
/// in any order with identical results.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // kNumBuckets entries (empty = all zero)

  void Merge(const HistogramSnapshot& other);
  /// Same estimator as Histogram::Quantile, over the snapshot.
  uint64_t Quantile(double q) const;
};

class Histogram {
 public:
  /// Linear buckets per power-of-two range; also the inverse of the
  /// documented relative-error bound (1/32 ≈ 3.2%).
  static constexpr size_t kSubBuckets = 32;
  static constexpr size_t kLogSubBuckets = 5;  // log2(kSubBuckets)
  static constexpr double kMaxRelativeError = 1.0 / kSubBuckets;
  // Exact buckets [0, 32) plus 32 buckets per shift value 0..58 (values
  // with bit width 6..64 — 59 shift values in total).
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kLogSubBuckets) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records `n` occurrences of `v` into the shared buckets.
  void Record(uint64_t v, uint64_t n = 1);

  /// Exact aggregates.
  uint64_t count() const;
  uint64_t sum() const;
  uint64_t min() const;  // 0 when empty
  uint64_t max() const;

  /// The q-quantile estimate for q in [0, 1] (0.5 = median), 0 when
  /// empty. Returns the upper bound of the bucket holding the true
  /// quantile value, clamped to [min(), max()], so the estimate is within
  /// kMaxRelativeError of the exact quantile (see file comment).
  uint64_t Quantile(double q) const;

  /// Point-in-time copy.
  HistogramSnapshot TakeSnapshot() const;

  /// Adds a snapshot's contents into this histogram (bucket-wise).
  void Merge(const HistogramSnapshot& other);

  /// Zeroes everything.
  void Reset();

  // ---- Bucket geometry (exposed for tests and exporters). ----
  static size_t BucketIndex(uint64_t v);
  /// Smallest / largest value mapping to bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

 private:
  void RecordMinMax(uint64_t v);

  static constexpr uint64_t kEmptyMin = ~uint64_t{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{kEmptyMin};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

}  // namespace rbda

#endif  // RBDA_OBS_HISTOGRAM_H_
