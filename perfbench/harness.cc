#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>

#include "chase/containment.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

void Fingerprint::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  // Length-terminate so adjacent inputs cannot alias.
  Add(static_cast<uint64_t>(bytes.size()));
}

void Fingerprint::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Fingerprint::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double QuantileUs(std::vector<uint64_t> samples_ns, double q) {
  if (samples_ns.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples_ns.size()));
  rank = std::min(rank, samples_ns.size() - 1);
  std::nth_element(samples_ns.begin(), samples_ns.begin() + rank,
                   samples_ns.end());
  return static_cast<double>(samples_ns[rank]) / 1000.0;
}

double PeakRssMb() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RegistrySnapshot RegistrySnapshot::Take() {
  rbda::MetricsRegistry& registry = rbda::MetricsRegistry::Default();
  RegistrySnapshot snap;
  for (auto& [name, value] : registry.CounterValues()) {
    snap.counters_[name] = value;
  }
  for (auto& [name, stats] : registry.DistributionValues()) {
    snap.histograms_[name] =
        registry.GetDistribution(name)->histogram().TakeSnapshot();
  }
  return snap;
}

uint64_t RegistrySnapshot::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const rbda::HistogramSnapshot* RegistrySnapshot::Histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

RegistryDelta::RegistryDelta(const RegistrySnapshot& before,
                             const RegistrySnapshot& after)
    : before_(before), after_(after) {}

uint64_t RegistryDelta::Count(const std::string& counter) const {
  return after_.Counter(counter) - before_.Counter(counter);
}

rbda::HistogramSnapshot RegistryDelta::Delta(
    const std::string& distribution) const {
  rbda::HistogramSnapshot out;
  const rbda::HistogramSnapshot* after = after_.Histogram(distribution);
  if (after == nullptr) return out;
  out = *after;
  out.min = 0;  // the phase's own minimum is not recoverable
  const rbda::HistogramSnapshot* before = before_.Histogram(distribution);
  if (before == nullptr) return out;
  out.count -= before->count;
  out.sum -= before->sum;
  for (size_t b = 0; b < out.buckets.size() && b < before->buckets.size();
       ++b) {
    out.buckets[b] -= before->buckets[b];
  }
  return out;
}

uint64_t RegistryDelta::N(const std::string& distribution) const {
  return Delta(distribution).count;
}

uint64_t RegistryDelta::Sum(const std::string& distribution) const {
  return Delta(distribution).sum;
}

double RegistryDelta::Quantile(const std::string& distribution,
                               double q) const {
  return static_cast<double>(Delta(distribution).Quantile(q));
}

uint32_t SpanLog::NameId(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

void SpanLog::Record(uint64_t op, std::string_view name, uint64_t start_ns,
                     uint64_t end_ns) {
  spans_.push_back(Span{op, NameId(name), start_ns, end_ns - start_ns});
}

uint64_t SpanLog::Count(std::string_view name) const {
  uint64_t n = 0;
  for (const Span& s : spans_) n += names_[s.name] == name ? 1 : 0;
  return n;
}

double SpanLog::SumUs(std::string_view name) const {
  uint64_t ns = 0;
  for (const Span& s : spans_) ns += names_[s.name] == name ? s.dur_ns : 0;
  return static_cast<double>(ns) / 1000.0;
}

double SpanLog::P50Us(std::string_view name) const {
  std::vector<uint64_t> durations;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) durations.push_back(s.dur_ns);
  }
  return QuantileUs(std::move(durations), 0.5);
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  for (const Span& s : spans_) {
    out << "{\"op\":" << s.op << ",\"name\":\"" << names_[s.name]
        << "\",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
        << "}\n";
  }
  return out.good();
}

Outcome OutcomeOf(const rbda::StatusOr<rbda::Decision>& decision) {
  if (!decision.ok()) return Outcome::kFailed;
  return decision->complete ? Outcome::kDefinite : Outcome::kUnknown;
}

Verdict VerdictOf(const rbda::StatusOr<rbda::Decision>& decision) {
  if (!decision.ok()) return Verdict{};
  return Verdict{true, decision->complete, decision->verdict};
}

rbda::DecisionOptions ColdPathBudgets() {
  rbda::DecisionOptions options;
  options.chase.max_rounds = 40;
  options.chase.max_facts = 4000;
  options.linear_depth_cap = 150;
  options.linear_max_facts = 2500;
  return options;
}

std::string TierCounts::ToJson() const {
  rbda::JsonObjectWriter w;
  w.AddUint("checks", checks);
  w.AddUint("cache_hit", cache_hit);
  w.AddUint("prefilter", prefilter);
  w.AddUint("countermodel", countermodel);
  w.AddUint("generic_chase", generic_chase);
  w.AddUint("jk", jk);
  w.AddUint("other", other);
  w.AddUint("budget_trips_rounds", trips_rounds);
  w.AddUint("budget_trips_facts", trips_facts);
  return w.ToJson();
}

TierProbe::TierProbe() {
  rbda::MetricsRegistry& r = rbda::MetricsRegistry::Default();
  checks_ = r.GetCounter("containment.checks");
  hits_ = r.GetCounter("containment.cache.hits");
  prefilter_ = r.GetCounter("containment.prune.prefilter_hits");
  countermodel_ = r.GetCounter("containment.prune.countermodel_hits");
}

TierProbe::Values TierProbe::Read() const {
  return Values{checks_->value(), hits_->value(), prefilter_->value(),
                countermodel_->value()};
}

void TierProbe::Before() { before_ = Read(); }

void TierProbe::After(const rbda::StatusOr<rbda::Decision>& decision) {
  TierCounts* counts = &counts_;
  Values after = Read();
  uint64_t checks = after.checks - before_.checks;
  counts->checks += checks;
  if (decision.ok() && !decision->complete) {
    if (decision->exhausted == rbda::ChaseExhausted::kRounds) {
      ++counts->trips_rounds;
    } else if (decision->exhausted == rbda::ChaseExhausted::kFacts) {
      ++counts->trips_facts;
    }
  }
  if (!decision.ok() || checks != 1) {
    ++counts->other;
  } else if (after.hits != before_.hits) {
    ++counts->cache_hit;
  } else if (after.prefilter != before_.prefilter) {
    ++counts->prefilter;
  } else if (after.countermodel != before_.countermodel) {
    ++counts->countermodel;
  } else if (decision->depth_bound > 0) {  // only the linear pipeline sets it
    ++counts->jk;
  } else {
    ++counts->generic_chase;
  }
}

namespace {

// The kernels' sizes, and their run times at reference speed (near their
// medians on the 4-vCPU VM they were tuned on, so scaled times stay close
// to measured ones).
constexpr int kAllocationOps = 40000;
constexpr size_t kAllocationSlots = 512;
constexpr double kAllocationNs = 2.0e6;
constexpr int kHandoffRoundTrips = 200;
constexpr double kHandoffNs = 0.7e6;

}  // namespace

SpeedReference::SpeedReference(Kernel kernel) : kernel_(kernel) {
  if (kernel_ != Kernel::kHandoff) return;
  if (pipe(to_helper_) != 0 || pipe(from_helper_) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  helper_ = std::thread([this] {
    char byte = 0;
    while (read(to_helper_[0], &byte, 1) == 1) {
      if (write(from_helper_[1], &byte, 1) != 1) break;
    }
  });
}

SpeedReference::~SpeedReference() {
  if (helper_.joinable()) {
    // End of input ends the helper's loop.
    close(to_helper_[1]);
    to_helper_[1] = -1;
    helper_.join();
  }
  for (int fd : {to_helper_[0], to_helper_[1], from_helper_[0],
                 from_helper_[1]}) {
    if (fd >= 0) close(fd);
  }
}

uint64_t SpeedReference::RunAllocation() {
  const uint64_t start = NowNs();
  std::vector<std::unique_ptr<std::string>> slots(kAllocationSlots);
  uint64_t state = 1;
  for (int i = 0; i < kAllocationOps; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::unique_ptr<std::string>& slot = slots[state % kAllocationSlots];
    slot = std::make_unique<std::string>(16 + (state >> 20) % 48, 'x');
    checksum_ += slot->size();
  }
  slots.clear();
  return NowNs() - start;
}

uint64_t SpeedReference::RunHandoff() {
  const uint64_t start = NowNs();
  char byte = 'x';
  for (int i = 0; i < kHandoffRoundTrips; ++i) {
    if (write(to_helper_[1], &byte, 1) != 1 ||
        read(from_helper_[0], &byte, 1) != 1) {
      std::perror("perfbench: hand-off kernel");
      std::exit(1);
    }
  }
  return NowNs() - start;
}

double SpeedReference::Scale(size_t runs) {
  std::vector<double> scales;
  for (size_t run = 0; run < runs; ++run) {
    scales.push_back(kernel_ == Kernel::kAllocation
                         ? kAllocationNs / static_cast<double>(RunAllocation())
                         : kHandoffNs / static_cast<double>(RunHandoff()));
    scales_.push_back(scales.back());
  }
  return Median(std::move(scales));
}

std::string SpeedReference::ToJson() const {
  std::vector<double> sorted = scales_;
  std::sort(sorted.begin(), sorted.end());
  rbda::JsonObjectWriter w;
  w.AddString("kernel",
              kernel_ == Kernel::kAllocation ? "allocation" : "handoff");
  w.AddUint("kernel_runs", sorted.size());
  w.AddDouble("scale_min", sorted.empty() ? 0 : sorted.front());
  w.AddDouble("scale_median", Median(sorted));
  w.AddDouble("scale_max", sorted.empty() ? 0 : sorted.back());
  if (kernel_ == Kernel::kAllocation) w.AddUint("checksum", checksum_);
  return w.ToJson();
}

void ScaleSamples(std::vector<uint64_t>* latency_ns, size_t begin,
                  double scale) {
  for (size_t i = begin; i < latency_ns->size(); ++i) {
    (*latency_ns)[i] = static_cast<uint64_t>(
        static_cast<double>((*latency_ns)[i]) * scale);
  }
}

double PhaseResult::OpsPerS() const {
  if (segments.empty()) return wall_s > 0 ? attempted / wall_s : 0;
  if (passes) {
    double pass_s = 0;
    for (size_t k = 0; k < segments[0].chunk_s.size(); ++k) {
      std::vector<double> times;
      for (const Segment& s : segments) times.push_back(s.chunk_s[k]);
      pass_s += Median(std::move(times));
    }
    double n = static_cast<double>(segments[0].end - segments[0].begin);
    return pass_s > 0 ? n / pass_s : 0;
  }
  std::vector<double> rates;
  for (const Segment& s : segments) {
    rates.push_back(s.wall_s > 0 ? (s.end - s.begin) / s.wall_s : 0);
  }
  return Median(std::move(rates));
}

double PhaseResult::LatencyUs(double q) const {
  if (segments.empty()) return QuantileUs(latency_ns, q);
  if (passes) {
    std::vector<uint64_t> per_input;
    for (size_t i = 0; i < segments[0].end - segments[0].begin; ++i) {
      std::vector<double> samples;
      for (const Segment& s : segments) {
        samples.push_back(static_cast<double>(latency_ns[s.begin + i]));
      }
      per_input.push_back(static_cast<uint64_t>(Median(std::move(samples))));
    }
    return QuantileUs(std::move(per_input), q);
  }
  std::vector<double> quantiles;
  for (const Segment& s : segments) {
    quantiles.push_back(QuantileUs(
        std::vector<uint64_t>(latency_ns.begin() + s.begin,
                              latency_ns.begin() + s.end),
        q));
  }
  return Median(std::move(quantiles));
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    double setup_s) {
  double success =
      phase.attempted == 0
          ? 0
          : static_cast<double>(phase.succeeded) / phase.attempted;
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", phase.OpsPerS(), "1/s"},
      {"latency_p50_us", phase.LatencyUs(0.50), "us"},
      {"latency_p99_us", phase.LatencyUs(0.99), "us"},
      {"success_ratio", success, "fraction"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::string TailJson(const PhaseResult& phase) {
  double p99_us = phase.LatencyUs(0.99);
  uint64_t beyond = 0;
  std::set<uint32_t> inputs;
  for (size_t i = 0; i < phase.latency_ns.size(); ++i) {
    if (static_cast<double>(phase.latency_ns[i]) / 1000.0 > p99_us) {
      ++beyond;
      inputs.insert(phase.input[i]);
    }
  }
  rbda::JsonObjectWriter w;
  w.AddUint("samples", phase.latency_ns.size());
  w.AddUint("beyond_p99", beyond);
  w.AddUint("distinct_inputs_beyond_p99", inputs.size());
  return w.ToJson();
}

std::vector<Metric> PerLayerMetrics(const TracedRun& run) {
  const RegistryDelta& d = *run.delta;
  const SpanLog& spans = *run.spans;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto mean = [&](const std::string& dist) {
    return ratio(static_cast<double>(d.Sum(dist)), d.N(dist));
  };
  auto count = [&](const std::string& c) {
    return static_cast<double>(d.Count(c));
  };
  double uncached = count("containment.cache.misses");
  double stages = static_cast<double>(
      d.Sum("answerability.simplification_us") +
      d.Sum("answerability.reduction_us") +
      d.Sum("answerability.containment_us"));
  double semi_rounds = count("chase.delta.rounds");
  double full_rounds = count("chase.delta.full_rounds");
  double traced = run.traced_ops_per_s;
  double untraced = run.untraced_ops_per_s;
  return {
      {"parser.parse_us.sum", spans.SumUs("parse"), "us"},
      {"parser.parse_us.p50", spans.P50Us("parse"), "us"},
      {"parser.calls", static_cast<double>(spans.Count("parse")), "count"},
      {"core.decide_us.sum", static_cast<double>(
                                 d.Sum("answerability.decide_us")),
       "us"},
      {"core.simplify_us.sum",
       static_cast<double>(d.Sum("answerability.simplification_us")) +
           run.explicit_simplify_us,
       "us"},
      {"core.reduction_us.sum",
       static_cast<double>(d.Sum("answerability.reduction_us")), "us"},
      {"core.unattributed_us", run.decide_us - stages, "us"},
      {"containment.cache.hit_ratio",
       ratio(count("containment.cache.hits"),
             count("containment.cache.hits") + uncached),
       "fraction"},
      {"containment.cache.hit_us.mean", mean("containment.check_us.hit"),
       "us"},
      {"containment.cache.evictions", count("containment.cache.evictions"),
       "count"},
      {"containment.prefilter_ratio",
       ratio(count("containment.prune.prefilter_hits"), uncached),
       "fraction"},
      {"containment.countermodel_ratio",
       ratio(count("containment.prune.countermodel_hits"), uncached),
       "fraction"},
      {"containment.pruned_per_check",
       ratio(count("containment.prune.constraints_pruned"),
             count("containment.prune.checks")),
       "count"},
      {"chase.run_us.sum", static_cast<double>(d.Sum("chase.run_us")), "us"},
      {"chase.rounds", count("chase.rounds"), "count"},
      {"chase.facts_created", count("chase.facts_created"), "count"},
      {"chase.triggers.tgd", count("chase.triggers.tgd"), "count"},
      {"chase.full_round_ratio",
       ratio(full_rounds, full_rounds + semi_rounds), "fraction"},
      {"containment.linear_ratio",
       ratio(count("containment.checks.linear"), count("containment.checks")),
       "fraction"},
      {"containment.activeness_per_decide",
       ratio(count("containment.activeness_checks"),
             count("answerability.decisions")),
       "count"},
      {"containment.linear_depth.p99",
       d.Quantile("containment.linear.depth", 0.99), "count"},
      {"containment.miss_us.p99", d.Quantile("containment.check_us.miss", 0.99),
       "us"},
      {"containment.hom_success_ratio",
       ratio(count("containment.hom_checks.succeeded"),
             count("containment.hom_checks")),
       "fraction"},
      {"chase.exhausted.facts", count("chase.exhausted.facts"), "count"},
      {"chase.exhausted.rounds", count("chase.exhausted.rounds"), "count"},
      {"executor.execute_us.p50", d.Quantile("executor.execute_us", 0.5),
       "us"},
      {"executor.access_calls", count("executor.access_calls"), "count"},
      {"executor.tuples_fetched", count("executor.tuples_fetched"), "count"},
      {"executor.truncations", count("executor.truncations"), "count"},
      {"serve.rtt_us.run.p50", spans.P50Us("serve.run"), "us"},
      {"serve.rtt_us.hit.p50", spans.P50Us("serve.hit"), "us"},
      {"serve.rtt_us.miss.p50", spans.P50Us("serve.miss"), "us"},
      {"serve.health_rtt_us.p50", spans.P50Us("serve.health"), "us"},
      {"serve.server_us.p50", d.Quantile("serve.latency.decide_us", 0.5),
       "us"},
      {"serve.cache.hit_ratio",
       ratio(count("serve.cache.hits"),
             count("serve.cache.hits") + count("serve.cache.misses")),
       "fraction"},
      {"serve.failures", static_cast<double>(run.serve_failures), "count"},
      {"trace.ops_per_s.untraced", untraced, "1/s"},
      {"trace.ops_per_s.traced", traced, "1/s"},
      {"trace.overhead_pct", untraced > 0 ? 100.0 * (1 - traced / untraced) : 0,
       "%"},
  };
}

void PrintInfo(std::string_view tag, const std::string& json) {
  std::printf("%.*s %s\n", static_cast<int>(tag.size()), tag.data(),
              json.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  rbda::JsonObjectWriter all;
  for (const Metric& m : metrics) {
    // Full precision: the JSON writer's AddDouble keeps six digits.
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    rbda::JsonObjectWriter one;
    one.AddRaw("value", value);
    one.AddString("unit", m.unit);
    all.AddRaw(m.name, one.ToJson());
  }
  rbda::JsonObjectWriter w;
  w.AddBool("correct", correct);
  w.AddUint("attempted", attempted);
  w.AddUint("failed", failed);
  w.AddRaw("metrics", all.ToJson());
  std::printf("%s\n", w.ToJson().c_str());
  std::fflush(stdout);
}

void WriteSpans(const Args& args, const SpanLog& spans) {
  mkdir(args.trace_dir.c_str(), 0755);  // the parent is the build tree
  std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".jsonl";
  rbda::JsonObjectWriter w;
  w.AddString("path", path);
  w.AddUint("spans", spans.size());
  w.AddBool("written", spans.Write(path));
  PrintInfo("spans", w.ToJson());
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    if (out.size() > 1) out += ',';
    out += std::to_string(v);
  }
  return out + "]";
}

void PrintSetup(const std::vector<double>& raw_s,
                const std::vector<double>& reference_s) {
  rbda::JsonObjectWriter w;
  w.AddRaw("raw_s", JsonList(raw_s));
  w.AddRaw("reference_s", JsonList(reference_s));
  PrintInfo("setup", w.ToJson());
}

int RunDecideWorkload(const Args& args, DecideWorkload* workload) {
  SpeedReference reference(SpeedReference::Kernel::kAllocation);
  std::vector<double> raw_setup_s, setup_s;
  std::string fingerprint;
  for (int k = 0; k < kSetupRepeats; ++k) {
    uint64_t start = NowNs();
    fingerprint = workload->Setup();
    raw_setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_s.push_back(raw_setup_s.back() *
                      reference.Scale(kSetupReferenceRuns));
  }
  PrintSetup(raw_setup_s, setup_s);
  rbda::JsonObjectWriter inputs;
  inputs.AddString("workload", args.workload);
  inputs.AddUint("seed", args.seed);
  inputs.AddString("fingerprint", fingerprint);
  inputs.AddUint("distinct_inputs", workload->NumOps());
  PrintInfo("inputs", inputs.ToJson());

  // Warm-up pass, untimed, from an empty containment cache: its tier
  // composition is the same on every run of the seed.
  TierProbe probe;
  uint64_t op_id = 0;
  rbda::ClearContainmentCache();
  RunPasses(
      workload->NumOps(), 0, /*single_pass=*/true, nullptr,
      [&](size_t i, size_t) {
        return workload->Run(i, &probe, nullptr, op_id++);
      },
      [](size_t) {});
  PrintInfo("composition", probe.counts().ToJson());
  workload->BetweenPasses();

  auto run_phase = [&](bool single_pass, SpanLog* spans) {
    return RunPasses(
        workload->NumOps(), args.seconds, single_pass, &reference,
        [&](size_t i, size_t) {
          return workload->Run(i, nullptr, spans, op_id++);
        },
        [&](size_t) { workload->BetweenPasses(); });
  };
  auto print_phase = [&](const PhaseResult& phase) {
    rbda::JsonObjectWriter w;
    w.AddUint("ops", phase.attempted);
    w.AddDouble("wall_s", phase.wall_s);
    std::vector<double> raw, scaled;
    for (const Segment& s : phase.segments) {
      raw.push_back(s.raw_wall_s);
      scaled.push_back(s.wall_s);
    }
    w.AddRaw("full_pass_s", JsonList(raw));
    w.AddRaw("full_pass_reference_s", JsonList(scaled));
    PrintInfo("phase", w.ToJson());
    PrintInfo("tail", TailJson(phase));
    PrintInfo("speed", reference.ToJson());
  };

  if (!args.trace) {
    PhaseResult phase = run_phase(/*single_pass=*/false, nullptr);
    print_phase(phase);
    bool correct = workload->Gate();
    PrintResult(correct, phase.attempted, phase.failed,
                EndToEndMetrics(phase, Median(setup_s)));
    return correct ? 0 : 1;
  }

  // Traced run: one untraced pass, then the same pass with spans, so the
  // two differ only by the tracing.
  PhaseResult untraced = run_phase(/*single_pass=*/true, nullptr);
  workload->BetweenPasses();
  SpanLog spans;
  RegistrySnapshot before = RegistrySnapshot::Take();
  PhaseResult traced = run_phase(/*single_pass=*/true, &spans);
  RegistrySnapshot after = RegistrySnapshot::Take();
  print_phase(traced);
  WriteSpans(args, spans);
  bool correct = workload->Gate();
  RegistryDelta delta(before, after);
  TracedRun run;
  run.delta = &delta;
  run.spans = &spans;
  run.untraced_ops_per_s = untraced.OpsPerS();
  run.traced_ops_per_s = traced.OpsPerS();
  run.decide_us = spans.SumUs("decide");
  run.explicit_simplify_us = spans.SumUs("simplify");
  PrintResult(correct, traced.attempted, traced.failed, PerLayerMetrics(run));
  return correct ? 0 : 1;
}

}  // namespace perfbench
