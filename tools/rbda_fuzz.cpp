// rbda_fuzz — differential fuzzing driver (see src/fuzz/).
//
//   rbda_fuzz [--seed=N] [--iters=N] [--fragment=id|fd|uidfd|chain]
//             [--shrink=0|1] [--out-dir=path] [--inject-bug[=kind]]
//             [--checkers=name,...] [--fault-plans=N] [--jobs=N]
//             [--metrics[=path]] [--trace=path]
//             [--trace-format=jsonl|chrome]
//       Generate cases, run the checker battery, shrink findings, write
//       repro files. Exit code: 0 = all checkers agreed on every case,
//       1 = at least one finding, 2 = usage error.
//
//   rbda_fuzz --replay=<file.rbda> [--seed=N] [--inject-bug[=kind]]
//       Re-run the full battery on a previously saved repro (or any .rbda
//       document with a query). Exit code as above.
//
// --inject-bug plants a test-only bug to prove the harness detects and
// minimizes it:
//   --inject-bug / --inject-bug=simplification — broken simplification
//     (all result bounds stripped; CheckerOptions::inject_simplification_bug)
//   --inject-bug=partial — lets a degraded non-monotone plan return results
//     (CheckerOptions::inject_partial_bug; the fault-injection checker must
//     flag the over-approximating difference)
//   --inject-bug=overprune — drops one backward-reachable relation from the
//     relevance closure (CheckerOptions::inject_overprune_bug; the
//     goal-pruned checker must flag the verdict flips)
//   --inject-bug=stale-goal — the Johnson–Klug check's goal matcher stops
//     re-checking unmatched goal components after the first round
//     (CheckerOptions::inject_stale_goal_bug; the linear-vs-generic checker
//     must flag the missed goals)
// --checkers restricts the battery to the named checkers (comma-separated:
// naive, simplification, oracle, plan, chase, goal-pruned,
// linear-generic, countermodel-certificate, roundtrip, fault-injection).
// --fault-plans
// sets how many mutated fault plans the fault-injection checker runs per
// case.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "fuzz/fuzzer.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace rbda;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: rbda_fuzz [--seed=N] [--iters=N] "
      "[--fragment=id|fd|uidfd|chain] [--shrink=0|1] [--out-dir=path]\n"
      "                 [--jobs=N]\n"
      "                 "
      "[--inject-bug[=simplification|partial|overprune|stale-goal]] "
      "[--checkers=name,...] [--fault-plans=N]\n"
      "                 [--replay=file.rbda] "
      "[--metrics[=path]] [--trace=path] "
      "[--trace-format=jsonl|chrome]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

struct FuzzCli {
  FuzzOptions fuzz;
  std::string replay_path;
  bool metrics = false;
  std::string metrics_path;
  std::string trace_path;
  std::string trace_format = "jsonl";  // or "chrome"

  static bool Parse(int argc, char** argv, FuzzCli* out);
};

bool FuzzCli::Parse(int argc, char** argv, FuzzCli* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   arg.c_str());
      return false;
    }
    std::string key = arg;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    uint64_t n = 0;
    if (key == "--seed") {
      if (!ParseUint(value, &out->fuzz.seed)) {
        std::fprintf(stderr, "--seed expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--iters") {
      if (!ParseUint(value, &out->fuzz.iters)) {
        std::fprintf(stderr, "--iters expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--fragment") {
      FuzzFamily family;
      if (!ParseFuzzFamily(value, &family)) {
        std::fprintf(stderr,
                     "--fragment expects id|fd|uidfd|chain, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->fuzz.family = family;
    } else if (key == "--shrink") {
      if (!ParseUint(value.empty() ? "1" : value, &n)) {
        std::fprintf(stderr, "--shrink expects 0 or 1, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->fuzz.shrink = n != 0;
    } else if (key == "--out-dir") {
      out->fuzz.out_dir = value;
    } else if (key == "--inject-bug") {
      if (value.empty() || value == "simplification") {
        out->fuzz.checkers.inject_simplification_bug = true;
      } else if (value == "partial") {
        out->fuzz.checkers.inject_partial_bug = true;
      } else if (value == "overprune") {
        out->fuzz.checkers.inject_overprune_bug = true;
      } else if (value == "stale-goal") {
        out->fuzz.checkers.inject_stale_goal_bug = true;
      } else {
        std::fprintf(stderr,
                     "--inject-bug expects "
                     "simplification|partial|overprune|stale-goal, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--checkers") {
      CheckerOptions& c = out->fuzz.checkers;
      c.check_naive = c.check_simplification = c.check_oracle =
          c.check_plan = c.check_chase = c.check_goal_pruned =
              c.check_linear_generic = c.check_countermodel =
                  c.check_roundtrip = c.check_fault_injection = false;
      std::stringstream names(value);
      std::string name;
      while (std::getline(names, name, ',')) {
        if (name == "naive") {
          c.check_naive = true;
        } else if (name == "simplification") {
          c.check_simplification = true;
        } else if (name == "oracle") {
          c.check_oracle = true;
        } else if (name == "plan") {
          c.check_plan = true;
        } else if (name == "chase") {
          c.check_chase = true;
        } else if (name == "goal-pruned") {
          c.check_goal_pruned = true;
        } else if (name == "linear-generic") {
          c.check_linear_generic = true;
        } else if (name == "countermodel-certificate") {
          c.check_countermodel = true;
        } else if (name == "roundtrip") {
          c.check_roundtrip = true;
        } else if (name == "fault-injection") {
          c.check_fault_injection = true;
        } else {
          std::fprintf(stderr, "--checkers: unknown checker '%s'\n",
                       name.c_str());
          return false;
        }
      }
    } else if (key == "--jobs") {
      if (!ParseUint(value, &n) || n == 0) {
        std::fprintf(stderr, "--jobs expects a positive number, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->fuzz.jobs = static_cast<size_t>(n);
    } else if (key == "--fault-plans") {
      if (!ParseUint(value, &n)) {
        std::fprintf(stderr, "--fault-plans expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->fuzz.checkers.fault_plans = static_cast<size_t>(n);
    } else if (key == "--replay") {
      if (value.empty()) {
        std::fprintf(stderr, "--replay requires a path\n");
        return false;
      }
      out->replay_path = value;
    } else if (key == "--metrics") {
      out->metrics = true;
      out->metrics_path = value;
    } else if (key == "--trace") {
      if (value.empty()) {
        std::fprintf(stderr, "--trace requires a path: --trace=out.jsonl\n");
        return false;
      }
      out->trace_path = value;
    } else if (key == "--trace-format") {
      if (value != "jsonl" && value != "chrome") {
        std::fprintf(stderr,
                     "--trace-format expects jsonl or chrome, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->trace_format = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int EmitMetrics(const FuzzCli& cli) {
  std::string snapshot = SnapshotToJson(MetricsRegistry::Default());
  if (cli.metrics_path.empty()) {
    std::printf("%s\n", snapshot.c_str());
    return 0;
  }
  std::ofstream out(cli.metrics_path);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics to %s\n",
                 cli.metrics_path.c_str());
    return 1;
  }
  out << snapshot << "\n";
  return 0;
}

int RunReplay(const FuzzCli& cli) {
  std::string text;
  if (!ReadFile(cli.replay_path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", cli.replay_path.c_str());
    return 2;
  }
  CheckerOptions checkers = cli.fuzz.checkers;
  checkers.seed = cli.fuzz.seed;
  StatusOr<CheckReport> report = ReplayDocument(text, checkers);
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf("replay of %s: %llu checkers ran, %llu skipped, %zu findings\n",
              cli.replay_path.c_str(),
              static_cast<unsigned long long>(report->checkers_run),
              static_cast<unsigned long long>(report->checkers_skipped),
              report->findings.size());
  for (const Finding& f : report->findings) {
    std::printf("FINDING [%s] %s\n", f.checker.c_str(), f.detail.c_str());
  }
  return report->findings.empty() ? 0 : 1;
}

int RunLoop(const FuzzCli& cli) {
  FuzzReport report = RunFuzzer(cli.fuzz);
  std::printf("fuzz: seed=%llu iters=%llu fragment=%s -> %zu finding(s)\n",
              static_cast<unsigned long long>(cli.fuzz.seed),
              static_cast<unsigned long long>(report.cases),
              cli.fuzz.family.has_value() ? FuzzFamilyName(*cli.fuzz.family)
                                          : "all",
              report.findings.size());
  for (const FuzzFinding& f : report.findings) {
    std::printf(
        "FINDING case=%llu family=%s checker=%s\n  %s\n",
        static_cast<unsigned long long>(f.case_index),
        FuzzFamilyName(f.family), f.checker.c_str(), f.detail.c_str());
    if (!f.repro_path.empty()) {
      std::printf("  repro written to %s\n", f.repro_path.c_str());
      continue;
    }
    if (!cli.fuzz.out_dir.empty()) {
      std::fprintf(stderr, "cannot write repro to %s\n",
                   ReproFilePath(cli.fuzz.out_dir, f).c_str());
    }
    std::printf("  minimized repro:\n%s", f.shrunk.c_str());
  }
  return report.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzCli cli;
  if (!FuzzCli::Parse(argc, argv, &cli)) return Usage();

  std::unique_ptr<TraceSink> trace_sink;
  if (!cli.trace_path.empty()) {
    bool sink_ok = false;
    if (cli.trace_format == "chrome") {
      auto sink = std::make_unique<ChromeTraceFileSink>(cli.trace_path);
      sink_ok = sink->ok();
      trace_sink = std::move(sink);
    } else {
      auto sink = std::make_unique<JsonLinesFileSink>(cli.trace_path);
      sink_ok = sink->ok();
      trace_sink = std::move(sink);
    }
    if (!sink_ok) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   cli.trace_path.c_str());
      return 1;
    }
    SetTraceSink(trace_sink.get());
  }

  int code = cli.replay_path.empty() ? RunLoop(cli) : RunReplay(cli);

  if (trace_sink != nullptr) {
    SetTraceSink(nullptr);
    trace_sink->Flush();
  }
  if (cli.metrics) {
    int metrics_code = EmitMetrics(cli);
    if (code == 0) code = metrics_code;
  }
  return code;
}
