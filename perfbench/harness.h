// Shared harness of the perfbench workloads: arguments, timing, input
// fingerprints, registry deltas, the benchmark's own spans, the per-layer
// metric table and the result line.
//
// Every workload drives the program only through its public functions and
// reads the metrics registry the program already keeps. Spans are recorded
// here, around the benchmark's calls into the program, never inside it.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/answerability.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Seed of the input populations. Each workload draws from a fixed
/// population: the workload seed orders decide_mix's documents and draws
/// serve's request sequence, and table1's inputs are fixed outright. With
/// seed-dependent populations the run-to-run spread was measured wider:
/// the slowest inputs take a large share of the time, and how many of them
/// a population holds varied from seed to seed.
constexpr uint64_t kPopulationSeed = 1;

/// FNV-1a over the generated inputs, so a change to a generator or the
/// serializer shows as a different fingerprint on the recorded seed.
class Fingerprint {
 public:
  void Add(std::string_view bytes);
  void Add(uint64_t value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double Median(std::vector<double> values);
/// Exact q-quantile of nanosecond samples, in microseconds.
double QuantileUs(std::vector<uint64_t> samples_ns, double q);
double PeakRssMb();

/// Counter values and distribution histograms of the default registry at
/// one instant; two of them give the work done in between.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();

  uint64_t Counter(const std::string& name) const;
  const rbda::HistogramSnapshot* Histogram(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, rbda::HistogramSnapshot> histograms_;
};

class RegistryDelta {
 public:
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after);

  uint64_t Count(const std::string& counter) const;
  uint64_t N(const std::string& distribution) const;
  uint64_t Sum(const std::string& distribution) const;
  double Quantile(const std::string& distribution, double q) const;

 private:
  rbda::HistogramSnapshot Delta(const std::string& distribution) const;

  const RegistrySnapshot& before_;
  const RegistrySnapshot& after_;
};

/// Spans the benchmark records around its own calls into the program:
/// one per call, tagged with the operation it belongs to. Kept in memory
/// and written out as JSON lines when the workload ends.
class SpanLog {
 public:
  void Record(uint64_t op, std::string_view name, uint64_t start_ns,
              uint64_t end_ns);

  uint64_t Count(std::string_view name) const;
  double SumUs(std::string_view name) const;
  double P50Us(std::string_view name) const;
  size_t size() const { return spans_.size(); }
  /// Writes one JSON object per span; false if the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t op;
    uint32_t name;  // index into names_
    uint64_t start_ns;
    uint64_t dur_ns;
  };
  uint32_t NameId(std::string_view name);
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Which containment tier answered each check. Every decide makes exactly
/// one containment check, so reading the tier counters around a decide
/// attributes that check; `other` counts decides for which that did not
/// hold.
struct TierCounts {
  uint64_t checks = 0;
  uint64_t cache_hit = 0;
  uint64_t prefilter = 0;
  uint64_t countermodel = 0;
  uint64_t generic_chase = 0;
  uint64_t jk = 0;
  uint64_t other = 0;
  uint64_t trips_rounds = 0;
  uint64_t trips_facts = 0;

  std::string ToJson() const;
};

/// Reads the containment tier counters before and after one decide and
/// attributes its check.
class TierProbe {
 public:
  TierProbe();
  void Before();
  void After(const rbda::StatusOr<rbda::Decision>& decision);
  const TierCounts& counts() const { return counts_; }

 private:
  struct Values {
    uint64_t checks, hits, prefilter, countermodel;
  };
  Values Read() const;
  rbda::Counter* checks_;
  rbda::Counter* hits_;
  rbda::Counter* prefilter_;
  rbda::Counter* countermodel_;
  Values before_{};
  TierCounts counts_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The machine's current speed for one kind of work, measured by a fixed
/// reference kernel between stretches of timed work.
///
/// The machine is shared, and other tenants change its speed by tens of
/// percent for stretches of seconds to minutes: in probes on a 4-vCPU VM,
/// passes over the same decide_mix or table1 inputs took from 0.65x to
/// 1.4x their median time within five minutes, too slowly for a median
/// inside one run to remove. Times are therefore reported at reference
/// speed: a stretch of work is scaled by the kernel's nominal time over its
/// time measured right after the stretch. The kernels are the benchmark's
/// own code, so a change to the program does not move them, except through
/// the allocator state it leaves behind.
///
/// kAllocation allocates and frees short strings at random: the
/// small-object allocation and pointer-heavy access the engine spends its
/// time in. Timed after every 1/40 of a pass in those probes, it slowed
/// with both decide workloads (correlation 0.95 and 0.96 over 34 passes
/// each, regression slope 0.96 and 1.03), and scaling each chunk by it cut
/// the pass-to-pass spread of the pass time from 18% to 4-5%.
///
/// kHandoff passes a byte to a helper thread and back over two pipes: the
/// thread hand-offs a serve decision-cache hit is made of, which the
/// allocation kernel does not track. Over six 12-second serve runs, scaling
/// the hits' median latency by it cut its run-to-run spread from 13% to 3%.
class SpeedReference {
 public:
  enum class Kernel { kAllocation, kHandoff };

  explicit SpeedReference(Kernel kernel);
  ~SpeedReference();
  SpeedReference(const SpeedReference&) = delete;
  SpeedReference& operator=(const SpeedReference&) = delete;

  /// Runs the kernel `runs` times, untimed by the caller, and returns the
  /// median factor that brings work timed just before it to reference
  /// speed.
  double Scale(size_t runs = 1);
  /// Median and range of the factors so far, for the `speed` line.
  std::string ToJson() const;

 private:
  uint64_t RunAllocation();  // each returns the run's wall time in ns
  uint64_t RunHandoff();

  const Kernel kernel_;
  std::vector<double> scales_;
  uint64_t checksum_ = 0;  // keeps the allocation kernel's work observable
  int to_helper_[2] = {-1, -1};  // kHandoff's pipes and helper thread
  int from_helper_[2] = {-1, -1};
  std::thread helper_;
};

/// A stretch of a timed phase over which rates and quantiles are taken: a
/// full pass over the inputs, or a time window of the serve loop.
struct Segment {
  size_t begin = 0;  // sample range [begin, end)
  size_t end = 0;
  double wall_s = 0;         // at reference speed
  double raw_wall_s = 0;     // as measured
  std::vector<double> chunk_s;  // a pass's time per chunk of inputs, scaled
};

/// Timed-phase outcome shared by every workload.
///
/// Times are at reference speed (see SpeedReference), and the metrics are
/// medians over segments, which stretches of a slower machine within the
/// run move far less than a mean over the whole phase. When the segments
/// are passes over the same inputs, each chunk of inputs takes its median
/// time over the passes and each input its median latency; otherwise each
/// segment yields one rate and one quantile. Without segments the whole
/// phase is one.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;     // errors and unanswered requests
  uint64_t succeeded = 0;  // definite verdicts, ok runs and reloads
  double wall_s = 0;       // as measured, reference runs excluded
  std::vector<uint64_t> latency_ns;  // at reference speed
  std::vector<uint32_t> input;  // which distinct input each sample came from
  std::vector<Segment> segments;
  bool passes = false;  // segments are passes over the same inputs

  double OpsPerS() const;
  double LatencyUs(double q) const;
};

enum class Outcome { kFailed, kUnknown, kDefinite };

Outcome OutcomeOf(const rbda::StatusOr<rbda::Decision>& decision);

/// What one decide returned, kept for the correctness gates.
struct Verdict {
  bool ok = false;
  bool complete = false;
  rbda::Answerability verdict = rbda::Answerability::kUnknown;
};

Verdict VerdictOf(const rbda::StatusOr<rbda::Decision>& decision);

/// The fuzz battery's budgets when the benchmark was defined, stated here
/// so a change to the fuzz budgets cannot move a workload: generic chase
/// 40 rounds / 4,000 facts, JK depth 150 / 2,500 facts. decide_mix decides
/// with them, and serve's misses pay the same cold path.
rbda::DecisionOptions ColdPathBudgets();

struct OpSample {
  uint64_t latency_ns;
  Outcome outcome;
};

/// Chunks a pass is cut into for the per-chunk medians; the reference
/// kernel runs after each.
constexpr size_t kChunksPerPass = 40;

/// Brings the samples [begin, size) to reference speed.
void ScaleSamples(std::vector<uint64_t>* latency_ns, size_t begin,
                  double scale);

/// Closed loop of one caller over `n` distinct inputs: op(i, pass) runs
/// input i. Passes over the inputs repeat until `seconds` of timed work
/// have passed, but the first pass always completes; every complete pass
/// is a segment. `between_passes(pass)` runs untimed before each later
/// pass. With `single_pass`, exactly one pass runs. After each chunk of a
/// pass, `reference` (when given) is run, untimed, and the chunk's time and
/// samples are scaled by its factor.
template <typename Op, typename BetweenPasses>
PhaseResult RunPasses(size_t n, double seconds, bool single_pass,
                      SpeedReference* reference, Op&& op,
                      BetweenPasses&& between_passes) {
  PhaseResult result;
  result.passes = true;
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  const size_t chunk = n / kChunksPerPass > 0 ? n / kChunksPerPass : 1;
  uint64_t timed_ns = 0;
  for (size_t pass = 0;; ++pass) {
    if (pass > 0) between_passes(pass);
    Segment segment;
    segment.begin = result.latency_ns.size();
    uint64_t pass_ns = 0;
    size_t chunk_begin = segment.begin;
    uint64_t chunk_start = NowNs();
    bool out_of_time = false;
    for (size_t i = 0; i < n && !out_of_time; ++i) {
      OpSample sample = op(i, pass);
      ++result.attempted;
      if (sample.outcome == Outcome::kFailed) ++result.failed;
      if (sample.outcome == Outcome::kDefinite) ++result.succeeded;
      result.latency_ns.push_back(sample.latency_ns);
      result.input.push_back(static_cast<uint32_t>(i));
      const uint64_t now = NowNs();
      const uint64_t chunk_ns = now - chunk_start;
      out_of_time = pass > 0 && timed_ns + pass_ns + chunk_ns >= budget_ns;
      if ((i + 1) % chunk == 0 || i + 1 == n || out_of_time) {
        pass_ns += chunk_ns;
        const double scale = reference != nullptr ? reference->Scale() : 1;
        ScaleSamples(&result.latency_ns, chunk_begin, scale);
        segment.chunk_s.push_back(static_cast<double>(chunk_ns) * scale /
                                  1e9);
        segment.wall_s += segment.chunk_s.back();
        chunk_begin = result.latency_ns.size();
        chunk_start = NowNs();
      }
    }
    timed_ns += pass_ns;
    segment.end = result.latency_ns.size();
    segment.raw_wall_s = static_cast<double>(pass_ns) / 1e9;
    if (segment.end - segment.begin == n) {
      result.segments.push_back(std::move(segment));
    }
    if (out_of_time || single_pass || timed_ns >= budget_ns) break;
  }
  result.wall_s = static_cast<double>(timed_ns) / 1e9;
  return result;
}

/// The six end-to-end metrics of one untraced run.
std::vector<Metric> EndToEndMetrics(const PhaseResult& phase, double setup_s);

/// Samples and distinct inputs beyond the p99, printed so a reader can see
/// the tail is spread over many inputs.
std::string TailJson(const PhaseResult& phase);

/// What the traced run measured besides the registry delta.
struct TracedRun {
  const RegistryDelta* delta = nullptr;
  const SpanLog* spans = nullptr;
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  /// Sum of the decide spans when the benchmark itself calls decide; the
  /// registry's decide time otherwise (serve decides run in the server).
  double decide_us = 0;
  /// Simplification the benchmark calls itself, outside any decide.
  double explicit_simplify_us = 0;
  uint64_t serve_failures = 0;
};

/// Every per-layer metric, 0 where a layer does no work in the workload.
std::vector<Metric> PerLayerMetrics(const TracedRun& run);

/// A single-caller decide workload. RunDecideWorkload times its setup,
/// runs its passes, attributes the first pass's checks to containment
/// tiers, and prints the result.
class DecideWorkload {
 public:
  virtual ~DecideWorkload() = default;
  /// Generates every input and returns their fingerprint.
  virtual std::string Setup() = 0;
  virtual size_t NumOps() const = 0;
  /// Runs operation i and remembers its verdict for Gate(). Attributes its
  /// containment check with `probe` and records spans, when they are given.
  virtual OpSample Run(size_t i, TierProbe* probe, SpanLog* spans,
                       uint64_t op_id) = 0;
  /// Untimed work before a later pass.
  virtual void BetweenPasses() {}
  /// Checks the outputs after the timed phase; false on any mismatch.
  virtual bool Gate() = 0;
};

/// Setup is repeated this many times and its median reported; each setup
/// is scaled by the median of kSetupReferenceRuns kernel runs after it.
constexpr int kSetupRepeats = 9;
constexpr size_t kSetupReferenceRuns = 5;

/// A JSON array of the values, for the info lines.
std::string JsonList(const std::vector<double>& values);

/// Prints the setup times as measured and at reference speed.
void PrintSetup(const std::vector<double>& raw_s,
                const std::vector<double>& reference_s);

int RunDecideWorkload(const Args& args, DecideWorkload* workload);

/// Prints a tagged JSON line ("<tag> {...}") before the result line.
void PrintInfo(std::string_view tag, const std::string& json);

/// Prints the result line; it must be the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Writes the traced run's spans under args.trace_dir.
void WriteSpans(const Args& args, const SpanLog& spans);

int RunDecideMix(const Args& args);
int RunTable1(const Args& args);
int RunServe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
