// Shared helpers for the Table 1 benchmark binaries.
#ifndef RBDA_BENCH_BENCH_UTIL_H_
#define RBDA_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "base/task_pool.h"
#include "obs/histogram.h"
#include "core/answerability.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parser/parser.h"
#include "runtime/schema_generators.h"

namespace rbda {

// Accumulates name → value pairs (keys and strings JSON-escaped) and
// prints them as one `BENCH_JSON {...}` line, so every bench binary's
// headline numbers — plus the metrics-registry snapshot — are ingestible
// as a BENCH_*.json trajectory point:
//
//   ./table1_summary | sed -n 's/^BENCH_JSON //p' > BENCH_table1.json
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string_view bench_name) {
    obj_.AddString("bench", bench_name);
  }

  void Add(std::string_view key, uint64_t value) { obj_.AddUint(key, value); }
  void Add(std::string_view key, int value) { obj_.AddInt(key, value); }
  void Add(std::string_view key, double value) { obj_.AddDouble(key, value); }
  void Add(std::string_view key, std::string_view value) {
    obj_.AddString(key, value);
  }

  /// Embeds a pre-rendered JSON value verbatim under `key`.
  void AddRaw(std::string_view key, std::string_view json) {
    obj_.AddRaw(key, json);
  }

  /// Embeds the current default-registry snapshot under "metrics".
  void AddMetricsSnapshot() {
    obj_.AddRaw("metrics", SnapshotToJson(MetricsRegistry::Default()));
  }

  /// Records the process's peak resident set size so BENCH_*.json
  /// trajectories track memory alongside wall time (ru_maxrss is in
  /// kilobytes on Linux).
  void AddPeakRss() {
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      obj_.AddUint("peak_rss_bytes",
                   static_cast<uint64_t>(usage.ru_maxrss) * 1024);
    }
  }

  /// Embeds the profiler's containment-cost summary: the headline tail
  /// quantiles as flat "profile.containment.*" keys (the fields
  /// BENCH_obs.json trajectories track) plus the full profile — summary
  /// and top-K slowest checks — under "profile".
  void AddProfileSummary() {
    QueryProfileSnapshot snap = QueryProfiler::Default().TakeSnapshot();
    obj_.AddUint("profile.containment.checks", snap.checks);
    obj_.AddUint("profile.containment.p50_us", snap.check_us.Quantile(0.50));
    obj_.AddUint("profile.containment.p99_us", snap.check_us.Quantile(0.99));
    obj_.AddUint("profile.containment.p999_us",
                 snap.check_us.Quantile(0.999));
    obj_.AddUint("profile.containment.max_us", snap.check_us.max);
    obj_.AddRaw("profile", QueryProfiler::Default().ToJson());
  }

  /// Records a distribution's headline numbers as flat
  /// "<prefix>.{p50,p99,p999,max,mean}_us" keys — the fields BENCH_*.json
  /// trajectories track for every latency histogram.
  void AddQuantiles(std::string_view prefix, const HistogramSnapshot& h) {
    std::string p(prefix);
    obj_.AddUint(p + ".p50_us", h.Quantile(0.50));
    obj_.AddUint(p + ".p99_us", h.Quantile(0.99));
    obj_.AddUint(p + ".p999_us", h.Quantile(0.999));
    obj_.AddUint(p + ".max_us", h.max);
    obj_.AddUint(p + ".mean_us", h.count == 0 ? 0 : h.sum / h.count);
  }

  std::string ToJson() const { return obj_.ToJson(); }

  /// Prints the `BENCH_JSON {...}` line to stdout.
  void Print() const { std::printf("BENCH_JSON %s\n", ToJson().c_str()); }

 private:
  JsonObjectWriter obj_;
};

// Emits the standard end-of-table metrics block for a bench binary: the
// registry snapshot accumulated while the deterministic table ran (the
// part of the output that is diffable across commits).
inline void PrintBenchMetricsJson(std::string_view bench_name) {
  BenchJsonWriter writer(bench_name);
  writer.AddPeakRss();
  writer.AddProfileSummary();
  writer.AddMetricsSnapshot();
  writer.Print();
}

// The university fixture with a configurable bound on ud (0 = unbounded).
inline std::string UniversityText(uint32_t bound) {
  std::string method = bound == 0
                           ? "method ud on Udirectory inputs()"
                           : "method ud on Udirectory inputs() limit " +
                                 std::to_string(bound);
  return R"(
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
)" + method + R"(
tgd Prof(i, n, s) -> Udirectory(i, a, p)
query Q1() :- Prof(i, n, "10000")
query Q2() :- Udirectory(i, a, p)
)";
}

// The Example 6.1 fixture with a configurable bound on mtS.
inline std::string Example61Text(uint32_t bound) {
  return R"(
relation T(x)
relation S(x)
method mtS on S inputs() limit )" +
         std::to_string(bound) + R"(
method mtT on T inputs(0)
tgd T(y) & S(x) -> T(x)
tgd T(y) -> S(x)
query Q() :- T(y)
)";
}

// Boolean emptiness queries over a chain schema. The head query is
// answerable through the (possibly bounded) head method as an existence
// check; the tail query is not (tail tuples need not descend from the
// head).
inline ConjunctiveQuery ChainEmptinessQuery(const ServiceSchema& schema,
                                            RelationId relation) {
  std::vector<Term> args;
  Universe& u = schema.universe();
  for (uint32_t p = 0; p < u.Arity(relation); ++p) {
    args.push_back(u.FreshVariable());
  }
  return ConjunctiveQuery::Boolean({Atom(relation, std::move(args))});
}
inline ConjunctiveQuery ChainHeadQuery(const ServiceSchema& schema) {
  return ChainEmptinessQuery(schema, schema.relations().front());
}
inline ConjunctiveQuery ChainTailQuery(const ServiceSchema& schema) {
  return ChainEmptinessQuery(schema, schema.relations().back());
}

inline const char* ShortVerdict(const StatusOr<Decision>& d) {
  if (!d.ok()) return "error";
  if (!d->complete) return "unknown";
  return AnswerabilityName(d->verdict);
}

// ---- Parallel sweep instrumentation (docs/PERFORMANCE.md). ----
//
// Every bench binary runs a deterministic decision sweep twice — serially
// and at the job count from RBDA_JOBS — verifies the two produce the same
// verdict tally (the determinism contract), and emits wall time plus
// speedup-vs-serial into its BENCH_JSON line. tools/bench_all.sh collects
// those lines into BENCH_parallel.json.

/// Job count for bench binaries: RBDA_JOBS when set, else 1.
inline size_t BenchJobs() { return ResolveJobs(0); }

/// Verdict tally of a decision sweep; identical serial vs parallel.
struct SweepResult {
  int answerable = 0;
  int not_answerable = 0;
  int unknown = 0;
  int errors = 0;

  bool operator==(const SweepResult& o) const {
    return answerable == o.answerable &&
           not_answerable == o.not_answerable && unknown == o.unknown &&
           errors == o.errors;
  }
};

/// The schema families the standard sweep draws from (mirrors the Table 1
/// fragments the row binaries cover).
enum class SweepFamily { kId, kFd, kUidFd, kChain };

/// Decides `seeds` generated (schema, query) cases of `family` across
/// `jobs` workers. Each case builds its own Universe and Rng from its
/// index, so cases are independent and the tally is job-count-invariant.
inline SweepResult DecisionSweep(SweepFamily family, uint64_t seeds,
                                 size_t jobs, const std::string& prefix) {
  auto one_case = [family, &prefix](size_t i) -> StatusOr<SweepResult> {
    uint64_t seed = static_cast<uint64_t>(i) + 1;
    Universe u;
    Rng rng(seed * 13 + 7);
    ServiceSchema schema = [&]() {
      if (family == SweepFamily::kChain) {
        return GenerateChainSchema(&u, /*length=*/2 + seed % 3, /*arity=*/2,
                                   /*bounded_prefix=*/1, /*bound=*/5,
                                   prefix + std::to_string(seed));
      }
      SchemaFamilyOptions fam;
      fam.num_relations = 3;
      fam.min_arity = family == SweepFamily::kId ? 1 : 2;
      fam.max_arity = 3;
      fam.num_constraints = 3;
      fam.num_methods = 3;
      fam.prefix = prefix + std::to_string(seed);
      switch (family) {
        case SweepFamily::kFd:
          return GenerateFdSchema(&u, fam, &rng);
        case SweepFamily::kUidFd:
          fam.max_arity = 2;
          return GenerateUidFdSchema(&u, fam, &rng);
        default:
          return GenerateIdSchema(&u, fam, &rng);
      }
    }();
    ConjunctiveQuery q = GenerateQuery(schema, 2, 3, &rng);
    DecisionOptions options;
    options.linear_depth_cap = 400;
    StatusOr<Decision> d = DecideMonotoneAnswerability(schema, q, options);
    SweepResult r;
    if (!d.ok()) {
      ++r.errors;
    } else if (!d->complete) {
      ++r.unknown;
    } else if (d->verdict == Answerability::kAnswerable) {
      ++r.answerable;
    } else {
      ++r.not_answerable;
    }
    return r;
  };

  SweepResult total;
  StatusOr<std::vector<SweepResult>> cases =
      ParallelMap<SweepResult>(seeds, jobs, one_case);
  if (!cases.ok()) {
    total.errors = static_cast<int>(seeds);
    return total;
  }
  for (const SweepResult& r : *cases) {
    total.answerable += r.answerable;
    total.not_answerable += r.not_answerable;
    total.unknown += r.unknown;
    total.errors += r.errors;
  }
  return total;
}

/// Runs `sweep(jobs)` serially and at `jobs` workers, timing each run,
/// and records under "sweep.*": the job count, both wall times,
/// speedup-vs-serial, and whether the results matched. Returns the serial
/// result.
template <typename T>
T TimedParallelSweep(BenchJsonWriter* writer, size_t jobs,
                     const std::function<T(size_t)>& sweep) {
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };

  Clock::time_point t0 = Clock::now();
  T serial = sweep(1);
  uint64_t serial_us = micros(Clock::now() - t0);

  Clock::time_point t1 = Clock::now();
  T parallel = sweep(jobs);
  uint64_t parallel_us = micros(Clock::now() - t1);

  writer->Add("sweep.jobs", static_cast<uint64_t>(jobs));
  writer->Add("sweep.serial_us", serial_us);
  writer->Add("sweep.parallel_us", parallel_us);
  writer->Add("sweep.speedup", parallel_us == 0
                                   ? 1.0
                                   : static_cast<double>(serial_us) /
                                         static_cast<double>(parallel_us));
  writer->Add("sweep.parallel_matches_serial",
              static_cast<uint64_t>(serial == parallel ? 1 : 0));
  return serial;
}

/// The standard instrumented sweep for a bench binary: DecisionSweep of
/// `family` timed serial-vs-RBDA_JOBS, recorded into `writer`.
inline void EmitParallelSweep(BenchJsonWriter* writer, SweepFamily family,
                              uint64_t seeds, const std::string& prefix) {
  size_t jobs = BenchJobs();
  SweepResult result = TimedParallelSweep<SweepResult>(
      writer, jobs, [family, seeds, &prefix](size_t j) {
        return DecisionSweep(family, seeds, j, prefix);
      });
  writer->Add("sweep.cases", seeds);
  writer->Add("sweep.answerable", static_cast<uint64_t>(result.answerable));
  writer->Add("sweep.not_answerable",
              static_cast<uint64_t>(result.not_answerable));
  writer->Add("sweep.unknown", static_cast<uint64_t>(result.unknown));
  writer->Add("sweep.errors", static_cast<uint64_t>(result.errors));
}

/// PrintBenchMetricsJson plus the standard parallel sweep: the BENCH_JSON
/// line carries the sweep timing fields and then the metrics snapshot.
inline void PrintBenchMetricsJsonWithSweep(std::string_view bench_name,
                                           SweepFamily family,
                                           uint64_t seeds,
                                           const std::string& prefix) {
  BenchJsonWriter writer(bench_name);
  EmitParallelSweep(&writer, family, seeds, prefix);
  writer.AddPeakRss();
  writer.AddProfileSummary();
  writer.AddMetricsSnapshot();
  writer.Print();
}

}  // namespace rbda

#endif  // RBDA_BENCH_BENCH_UTIL_H_
