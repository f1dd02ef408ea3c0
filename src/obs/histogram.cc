#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rbda {

size_t Histogram::BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  size_t log = static_cast<size_t>(std::bit_width(v)) - 1;  // floor(log2 v)
  size_t shift = log - kLogSubBuckets;
  return kSubBuckets + shift * kSubBuckets +
         static_cast<size_t>((v >> shift) - kSubBuckets);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < kSubBuckets) return index;
  size_t shift = (index - kSubBuckets) / kSubBuckets;
  size_t offset = (index - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + offset) << shift;
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < kSubBuckets) return index;
  size_t shift = (index - kSubBuckets) / kSubBuckets;
  return BucketLowerBound(index) + ((uint64_t{1} << shift) - 1);
}

void Histogram::RecordMinMax(uint64_t v) {
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void Histogram::Record(uint64_t v, uint64_t n) {
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * n, std::memory_order_relaxed);
  RecordMinMax(v);
  buckets_[BucketIndex(v)].fetch_add(n, std::memory_order_relaxed);
}

uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

uint64_t Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == kEmptyMin ? 0 : m;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

HistogramSnapshot Histogram::TakeSnapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min();
  snap.max = max();
  return snap;
}

namespace {

// Shared quantile walk over a dense bucket array.
uint64_t QuantileOverBuckets(const uint64_t* buckets, uint64_t count,
                             uint64_t min, uint64_t max, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile element, 1-based: ceil(q * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<uint64_t>(rank, 1, count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      return std::clamp(Histogram::BucketUpperBound(b), min, max);
    }
  }
  return max;  // unreachable when counts are consistent
}

}  // namespace

uint64_t Histogram::Quantile(double q) const {
  HistogramSnapshot snap = TakeSnapshot();
  return QuantileOverBuckets(snap.buckets.data(), snap.count, snap.min,
                             snap.max, q);
}

void Histogram::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  count_.fetch_add(other.count, std::memory_order_relaxed);
  sum_.fetch_add(other.sum, std::memory_order_relaxed);
  RecordMinMax(other.min);
  RecordMinMax(other.max);
  for (size_t b = 0; b < kNumBuckets && b < other.buckets.size(); ++b) {
    if (other.buckets[b] != 0) {
      buckets_[b].fetch_add(other.buckets[b], std::memory_order_relaxed);
    }
  }
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (buckets.empty()) buckets.assign(Histogram::kNumBuckets, 0);
  for (size_t b = 0; b < buckets.size() && b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  return QuantileOverBuckets(buckets.data(), count, min, max, q);
}

}  // namespace rbda
