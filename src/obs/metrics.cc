#include "obs/metrics.h"

namespace rbda {

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Distribution* MetricsRegistry::GetDistribution(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = distributions_.find(name);
  if (it == distributions_.end()) {
    it = distributions_
             .emplace(std::string(name), std::make_unique<Distribution>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, dist] : distributions_) dist->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, DistributionStats>>
MetricsRegistry::DistributionValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, DistributionStats>> out;
  out.reserve(distributions_.size());
  for (const auto& [name, dist] : distributions_) {
    // One snapshot per distribution so the stats and quantiles are
    // mutually consistent.
    HistogramSnapshot snap = dist->histogram().TakeSnapshot();
    out.emplace_back(
        name, DistributionStats{snap.count, snap.sum, snap.min, snap.max,
                                snap.Quantile(0.50), snap.Quantile(0.90),
                                snap.Quantile(0.99), snap.Quantile(0.999)});
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

}  // namespace rbda
