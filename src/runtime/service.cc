#include "runtime/service.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "obs/metrics.h"

namespace rbda {

namespace {

struct ServiceMetrics {
  Counter* virtual_sleep_us;
  Counter* faults_transient;
  Counter* faults_permanent;
  Counter* faults_rate_limited;
  Counter* faults_truncated;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ServiceMetrics{
        r.GetCounter("executor.virtual_sleep_us"),
        r.GetCounter("executor.faults.transient"),
        r.GetCounter("executor.faults.permanent"),
        r.GetCounter("executor.faults.rate_limited"),
        r.GetCounter("executor.faults.truncated"),
    };
  }();
  return m;
}

// Stable 64-bit hash (FNV-1a) — std::hash is not portable across
// platforms, and the per-method permanent-outage draw must be.
uint64_t StableHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void VirtualClock::Sleep(uint64_t us) {
  now_us_ += us;
  Metrics().virtual_sleep_us->Increment(us);
}

std::vector<Fact> MatchingTuples(const Instance& data,
                                 const AccessMethod& method,
                                 const std::vector<Term>& binding) {
  std::vector<Fact> out;
  FactRange candidates = data.FactsOf(method.relation);
  auto matches = [&](FactRef f) {
    for (size_t i = 0; i < method.input_positions.size(); ++i) {
      if (f.arg(method.input_positions[i]) != binding[i]) return false;
    }
    return true;
  };
  if (!method.input_positions.empty()) {
    // Probe the positional index on the first input position.
    std::span<const uint32_t> postings =
        candidates.Postings(method.input_positions[0], binding[0]);
    for (uint32_t idx : postings) {
      if (matches(candidates[idx])) out.push_back(Fact(candidates[idx]));
    }
  } else {
    out.reserve(candidates.size());
    for (FactRef f : candidates) out.push_back(Fact(f));
  }
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<AccessResult> InstanceService::Call(const AccessMethod& method,
                                             const std::vector<Term>& binding) {
  std::vector<Fact> matching = MatchingTuples(data_, method, binding);
  AccessResult result;
  result.truncated = method.bound_kind == BoundKind::kResultBound &&
                     matching.size() > method.bound;
  result.facts = selector_->Choose(method, binding, matching);
  return result;
}

const FaultProfile& FaultPlan::ProfileFor(const std::string& method) const {
  auto it = per_method.find(method);
  return it != per_method.end() ? it->second : base;
}

FaultInjectingService::FaultInjectingService(Service* inner, FaultPlan plan,
                                             VirtualClock* clock)
    : inner_(inner),
      plan_(std::move(plan)),
      clock_(clock),
      rng_(plan_.seed) {}

uint64_t FaultInjectingService::CallCount(const std::string& method) const {
  auto it = calls_.find(method);
  return it != calls_.end() ? it->second : 0;
}

StatusOr<AccessResult> FaultInjectingService::Call(
    const AccessMethod& method, const std::vector<Term>& binding) {
  const FaultProfile& p = plan_.ProfileFor(method.name);
  const uint64_t index = ++calls_[method.name];  // 1-based call index
  last_retry_after_us_ = 0;
  if (p.latency_us > 0) clock_->Sleep(p.latency_us);

  // Deterministic schedules first — they consume no RNG draws, so tests
  // can script exact failure counts without disturbing the random stream.
  if (p.fail_from > 0 && index >= p.fail_from) {
    Metrics().faults_permanent->Increment();
    return Status::FailedPrecondition("service '" + method.name +
                                      "' is permanently down (schedule)");
  }
  if (index <= p.fail_first) {
    Metrics().faults_transient->Increment();
    return Status::Unavailable("transient failure on '" + method.name +
                               "' (scheduled, call " + std::to_string(index) +
                               ")");
  }
  // Permanent outage: one draw per (seed, method), independent of call
  // order, so a method is either up for the whole run or down for all of
  // it — like a dead endpoint, not a coin flipped per request.
  if (p.permanent_pm > 0 &&
      Mix(plan_.seed ^ StableHash(method.name)) % 1000 < p.permanent_pm) {
    Metrics().faults_permanent->Increment();
    return Status::FailedPrecondition("service '" + method.name +
                                      "' is permanently down");
  }
  if (p.rate_limit_pm > 0 && rng_.Chance(p.rate_limit_pm, 1000)) {
    last_retry_after_us_ = p.retry_after_us;
    Metrics().faults_rate_limited->Increment();
    return Status::ResourceExhausted("rate limit exceeded on '" +
                                     method.name + "'");
  }
  if (p.transient_pm > 0 && rng_.Chance(p.transient_pm, 1000)) {
    Metrics().faults_transient->Increment();
    return Status::Unavailable("transient failure on '" + method.name + "'");
  }

  StatusOr<AccessResult> result = inner_->Call(method, binding);
  if (!result.ok()) return result;
  if (p.truncate_pm > 0 && !result->facts.empty() &&
      rng_.Chance(p.truncate_pm, 1000)) {
    // Silent truncation: return strictly fewer tuples than the backend
    // did — below even the declared bound. Still a subset, so monotone
    // degradation stays sound; equality-convergence checks must use
    // truncation-free fault plans.
    result->facts.resize(rng_.Below(result->facts.size()));
    result->truncated = true;
    Metrics().faults_truncated->Increment();
  }
  return result;
}

StatusOr<FaultPlan> ParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  auto parse_pm = [](const std::string& v, uint32_t* out) {
    char* end = nullptr;
    double d = std::strtod(v.c_str(), &end);
    // strtod accepts "nan" and "inf", which pass a naive range check (NaN
    // compares false to everything) and then hit UB on the uint32 cast.
    if (end == v.c_str() || *end != '\0' || !std::isfinite(d) || d < 0.0 ||
        d > 1.0) {
      return false;
    }
    *out = static_cast<uint32_t>(d * 1000.0 + 0.5);
    return true;
  };
  auto parse_u64 = [](const std::string& v, uint64_t* out) {
    if (v.empty()) return false;
    uint64_t value = 0;
    for (char c : v) {
      if (c < '0' || c > '9') return false;
      uint64_t digit = static_cast<uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) return false;  // would wrap
      value = value * 10 + digit;
    }
    *out = value;
    return true;
  };
  auto parse_u32 = [&parse_u64](const std::string& v, uint32_t* out) {
    uint64_t n = 0;
    if (!parse_u64(v, &n) || n > UINT32_MAX) return false;
    *out = static_cast<uint32_t>(n);
    return true;
  };

  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec item '" + item +
                                     "' is not key=value");
    }
    std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    FaultProfile* profile = &plan.base;
    size_t dot = key.rfind('.');
    if (dot != std::string::npos) {
      profile = &plan.per_method[key.substr(0, dot)];
      key = key.substr(dot + 1);
    }
    bool ok;
    if (key == "transient") {
      ok = parse_pm(value, &profile->transient_pm);
    } else if (key == "rate") {
      ok = parse_pm(value, &profile->rate_limit_pm);
    } else if (key == "trunc") {
      ok = parse_pm(value, &profile->truncate_pm);
    } else if (key == "permanent") {
      ok = parse_pm(value, &profile->permanent_pm);
    } else if (key == "latency-us") {
      ok = parse_u64(value, &profile->latency_us);
    } else if (key == "retry-after-us") {
      ok = parse_u64(value, &profile->retry_after_us);
    } else if (key == "fail-first") {
      ok = parse_u32(value, &profile->fail_first);
    } else if (key == "fail-from") {
      ok = parse_u32(value, &profile->fail_from);
    } else if (key == "seed") {
      if (profile != &plan.base) {
        return Status::InvalidArgument(
            "seed cannot be set per method in a fault spec");
      }
      ok = parse_u64(value, &plan.seed);
    } else {
      return Status::InvalidArgument("unknown fault spec key '" + key + "'");
    }
    if (!ok) {
      return Status::InvalidArgument("bad value '" + value +
                                     "' for fault spec key '" + key + "'");
    }
  }
  return plan;
}

}  // namespace rbda
