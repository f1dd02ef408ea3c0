// rbda — command-line front end to the library.
//
//   rbda decide <schema.rbda> [--finite] [--naive] [--jobs=N]
//       Decide monotone answerability of every query in the document.
//       Every query's line is printed; the exit status is 1 when any
//       query's decide ended in an error Status (its line reads ERROR).
//       --jobs=N decides queries concurrently on the task pool (each task
//       re-parses the document into its own Universe); output is printed
//       in query order either way, so reports are identical at any job
//       count. RBDA_JOBS is consulted when the flag is absent.
//   rbda plan <schema.rbda> <query-name> [--rounds=N]
//       Synthesize a monotone plan (proof-driven, universal fallback).
//   rbda run <schema.rbda> <query-name> [--selector=first|last|random]
//            [--seed=N] [--faults=<spec|file>] [--retries=N]
//            [--deadline-ms=N] [--partial]
//       Execute the synthesized plan against the document's `fact` data
//       and compare with direct evaluation. --faults degrades the service
//       per a fault spec (see runtime/service.h; a readable file path is
//       loaded as the spec), --retries=N retries each failed access up to
//       N times with backoff on the virtual clock, --deadline-ms bounds
//       the plan's virtual elapsed time, and --partial lets a monotone
//       plan degrade gracefully (skip dead accesses, flag the output
//       partial) instead of failing.
//   rbda containment <schema.rbda> <q1> <q2>
//       Decide q1 ⊆_Σ q2 under the document's constraints.
//   rbda simplify <schema.rbda> <existence|fd|choice|elimub>
//       Print the simplified schema.
//   rbda oracle <schema.rbda> <query-name> [--attempts=N]
//       Randomized AMonDet counterexample search.
//   rbda explain <schema.rbda> <query-name>
//       Answerable: print the chase proof slice and the extracted plan.
//       Not answerable: print a checkable counterexample certificate.
//
// Observability flags, valid with every subcommand
// (docs/OBSERVABILITY.md):
//   --metrics[=path]   Print (or write to `path`) a JSON snapshot of the
//                      metrics registry after the command finishes.
//   --trace=path       Stream structured span/event records to `path`
//                      while the command runs.
//   --trace-format=jsonl|chrome
//                      Trace output format: JSON lines (default) or a
//                      Chrome trace-event array for Perfetto /
//                      chrome://tracing.
//   --profile[=path]   Print (or write to `path` as JSON) the containment
//                      cost profile: check-duration quantiles and the
//                      top-K slowest containment checks with per-check
//                      duration/rounds/facts attribution.
//   --slow-check-us=N  Containment checks at or above N microseconds
//                      emit a containment.slow_check trace event
//                      (default 100000).
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chase/containment.h"
#include "core/answerability.h"
#include "core/proof_plans.h"
#include "core/certificates.h"
#include "core/simplification.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "base/task_pool.h"
#include "parser/parser.h"
#include "parser/serializer.h"
#include "runtime/oracle.h"

using namespace rbda;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rbda <decide|plan|run|containment|simplify|oracle|explain> "
               "<schema.rbda> [args...] [--metrics[=path]] [--trace=path] "
               "[--trace-format=jsonl|chrome] [--profile[=path]] "
               "[--slow-check-us=N]\n"
               "decide prints every query's line and exits 1 if any "
               "query's decide ended in an error Status\n");
  return 2;
}

bool ReadFile(const char* path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

// Parsed view of argv[3..]: every recognized --flag in one place, so the
// observability flags compose with the per-command ones across all
// subcommands, plus the remaining positional arguments (query names,
// simplify mode). Unknown --flags are an error instead of being silently
// ignored.
struct CliOptions {
  bool finite = false;           // decide
  bool naive = false;            // decide
  bool metrics = false;          // all commands
  std::string metrics_path;      // empty = print to stdout
  std::string trace_path;        // empty = tracing off
  std::string trace_format = "jsonl";  // or "chrome"
  bool profile = false;          // all commands
  std::string profile_path;      // empty = print table to stdout
  uint64_t slow_check_us = 0;    // 0 = keep the profiler default
  std::string selector = "first";  // run
  uint64_t seed = 1;             // run
  std::string faults;            // run: fault spec text or file path
  uint64_t retries = 0;          // run: retries per failed access
  uint64_t deadline_ms = 0;      // run: virtual deadline, 0 = none
  bool partial = false;          // run: graceful degradation
  size_t rounds = 3;             // plan
  size_t attempts = 300;         // oracle
  size_t jobs = 0;               // decide: 0 = consult RBDA_JOBS
  std::vector<std::string> positional;

  static bool Parse(int argc, char** argv, CliOptions* out);
};

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

bool CliOptions::Parse(int argc, char** argv, CliOptions* out) {
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out->positional.push_back(std::move(arg));
      continue;
    }
    std::string key = arg;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    uint64_t n = 0;
    if (key == "--finite") {
      out->finite = true;
    } else if (key == "--naive") {
      out->naive = true;
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
    } else if (key == "--profile") {
      out->profile = true;
      out->profile_path = value;
    } else if (key == "--slow-check-us") {
      if (!ParseUint(value, &out->slow_check_us)) {
        std::fprintf(stderr, "--slow-check-us expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--selector") {
      out->selector = value;
    } else if (key == "--seed") {
      if (!ParseUint(value, &out->seed)) {
        std::fprintf(stderr, "--seed expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--faults") {
      if (value.empty()) {
        std::fprintf(stderr, "--faults requires a spec or file path\n");
        return false;
      }
      out->faults = value;
    } else if (key == "--retries") {
      if (!ParseUint(value, &out->retries)) {
        std::fprintf(stderr, "--retries expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--deadline-ms") {
      if (!ParseUint(value, &out->deadline_ms)) {
        std::fprintf(stderr, "--deadline-ms expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "--partial") {
      out->partial = true;
    } else if (key == "--rounds") {
      if (!ParseUint(value, &n)) {
        std::fprintf(stderr, "--rounds expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->rounds = static_cast<size_t>(n);
    } else if (key == "--jobs") {
      if (!ParseUint(value, &n) || n == 0) {
        std::fprintf(stderr, "--jobs expects a positive number, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->jobs = static_cast<size_t>(n);
    } else if (key == "--attempts") {
      if (!ParseUint(value, &n)) {
        std::fprintf(stderr, "--attempts expects a number, got '%s'\n",
                     value.c_str());
        return false;
      }
      out->attempts = static_cast<size_t>(n);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

const ConjunctiveQuery* FindQuery(const ParsedDocument& doc,
                                  const std::string& name) {
  auto it = doc.queries.find(name);
  if (it == doc.queries.end()) {
    std::fprintf(stderr, "no query named '%s' in the document\n",
                 name.c_str());
    return nullptr;
  }
  return &it->second;
}

// One query's report lines, and whether its decide ended in an error
// Status.
struct QueryReport {
  std::string text;
  bool failed = false;
};

// Decides one named query of `doc` and formats its report lines. Pure
// function of the document content, so batch mode can run it on a
// re-parsed copy and get text identical to the serial path.
QueryReport DecideOneQuery(const ParsedDocument& doc, Universe* universe,
                           const std::string& name, const CliOptions& cli) {
  // Attribute this query's containment checks to it in the profiler.
  ScopedProfileLabel profile_label("query:" + name);
  const ConjunctiveQuery& query = doc.queries.at(name);
  DecisionOptions options;
  options.force_naive = cli.naive;
  FrozenQuery frozen = FreezeQuery(query, universe);
  DecisionOptions adjusted = options;
  adjusted.accessible_constants = frozen.accessible_constants;
  StatusOr<Decision> d =
      cli.finite
          ? DecideFiniteMonotoneAnswerability(doc.schema, frozen.boolean_q,
                                              adjusted)
          : DecideQueryAnswerability(doc.schema, query, options);
  char buf[2048];
  if (!d.ok()) {
    std::snprintf(buf, sizeof(buf), "%-12s ERROR %s\n", name.c_str(),
                  d.status().ToString().c_str());
    return {buf, /*failed=*/true};
  }
  // An incomplete verdict names the budget that tripped (rounds vs.
  // facts ask for different tuning).
  std::string limited;
  if (!d->complete) {
    limited = "  [budget-limited";
    if (d->exhausted != ChaseExhausted::kNone) {
      limited += std::string(": ") + ChaseExhaustedName(d->exhausted);
    }
    limited += "]";
  }
  std::snprintf(buf, sizeof(buf), "%-12s %-16s %s%s\n    via %s\n",
                name.c_str(), AnswerabilityName(d->verdict),
                FragmentName(d->fragment), limited.c_str(),
                d->procedure.c_str());
  return {buf};
}

// Prints one query's report; returns 1 if its decide failed, else 0.
int PrintReport(const QueryReport& report) {
  std::fputs(report.text.c_str(), stdout);
  return report.failed ? 1 : 0;
}

int CmdDecide(const ParsedDocument& doc, Universe* universe,
              const std::string& text, const CliOptions& cli) {
  std::vector<std::string> names;
  names.reserve(doc.queries.size());
  for (const auto& [name, query] : doc.queries) names.push_back(name);

  size_t jobs = ResolveJobs(cli.jobs);
  int status = 0;
  if (jobs <= 1 || names.size() <= 1) {
    for (const std::string& name : names) {
      status |= PrintReport(DecideOneQuery(doc, universe, name, cli));
    }
    return status;
  }

  // Batch mode. Universe (symbol interning, null minting) is not
  // thread-safe, so each task re-parses the document text into its own
  // Universe and decides one query against that private copy. Reports are
  // collected by query index and printed in document order.
  StatusOr<std::vector<QueryReport>> reports = ParallelMap<QueryReport>(
      names.size(), jobs, [&](size_t i) -> StatusOr<QueryReport> {
        Universe local;
        StatusOr<ParsedDocument> local_doc = ParseDocument(text, &local);
        if (!local_doc.ok()) return local_doc.status();
        return DecideOneQuery(*local_doc, &local, names[i], cli);
      });
  if (!reports.ok()) {
    std::fprintf(stderr, "decide batch failed: %s\n",
                 reports.status().ToString().c_str());
    return 1;
  }
  for (const QueryReport& report : *reports) status |= PrintReport(report);
  return status;
}

int CmdPlan(const ParsedDocument& doc, Universe* universe,
            const CliOptions& cli) {
  if (cli.positional.empty()) return Usage();
  const ConjunctiveQuery* query = FindQuery(doc, cli.positional[0]);
  if (query == nullptr) return 1;
  SynthesisOptions options;
  options.access_rounds = cli.rounds;
  StatusOr<Plan> plan = ExtractPlanFromProof(doc.schema, *query, options);
  const char* kind = "proof-driven";
  if (!plan.ok()) {
    plan = SynthesizeUniversalPlan(doc.schema, *query, options);
    kind = "universal";
  }
  if (!plan.ok()) {
    std::fprintf(stderr, "no plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("# %s plan for %s\n%s", kind, cli.positional[0].c_str(),
              plan->ToString(*universe).c_str());
  return 0;
}

int CmdRun(const ParsedDocument& doc, Universe* universe,
           const CliOptions& cli) {
  if (cli.positional.empty()) return Usage();
  const ConjunctiveQuery* query = FindQuery(doc, cli.positional[0]);
  if (query == nullptr) return 1;
  StatusOr<Plan> plan = ExtractPlanFromProof(doc.schema, *query);
  if (!plan.ok()) plan = SynthesizeUniversalPlan(doc.schema, *query);
  if (!plan.ok()) {
    std::fprintf(stderr, "no plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  SelectionPolicy policy = cli.selector == "last" ? SelectionPolicy::kLastK
                           : cli.selector == "random"
                               ? SelectionPolicy::kRandomK
                               : SelectionPolicy::kFirstK;
  auto selector = MakeIdempotent(MakeSelector(policy, cli.seed));
  InstanceService backend(doc.data, selector.get());
  VirtualClock clock;

  FaultPlan faults;
  bool faulty_mode = !cli.faults.empty();
  if (faulty_mode) {
    std::string spec = cli.faults;
    std::string file_text;
    if (ReadFile(spec.c_str(), &file_text)) {
      // A fault *file* is the same spec with whitespace allowed.
      for (char& c : file_text) {
        if (c == '\n' || c == '\r' || c == '\t' || c == ' ') c = ',';
      }
      spec = file_text;
    }
    StatusOr<FaultPlan> parsed = ParseFaultSpec(spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --faults: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    faults = *parsed;
  }
  FaultInjectingService faulty(&backend, faults, &clock);

  ExecutionPolicy exec_policy;
  exec_policy.retry.max_attempts = cli.retries + 1;
  exec_policy.retry.jitter_seed = cli.seed;
  exec_policy.deadline_us = cli.deadline_ms * 1000;
  exec_policy.partial_results = cli.partial;
  PlanExecutor executor(doc.schema,
                        faulty_mode ? static_cast<Service*>(&faulty)
                                    : &backend,
                        &clock, exec_policy);
  StatusOr<ExecutionResult> out = executor.Run(*plan);
  if (!out.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 out.status().ToString().c_str());
    return 1;
  }
  const ExecutionStats& stats = executor.stats();
  std::printf("# plan output (%zu tuples, %zu service calls%s)\n",
              out->table.size(), stats.accesses,
              out->partial ? ", PARTIAL" : "");
  if (faulty_mode || cli.retries > 0 || cli.deadline_ms > 0) {
    std::printf(
        "# resilience: %zu retries, %zu transient / %zu rate-limited / "
        "%zu permanent faults, %zu breaker opens, %zu degraded accesses, "
        "%llu virtual us\n",
        stats.retries, stats.faults_transient, stats.faults_rate_limited,
        stats.faults_permanent, stats.breaker_opens, stats.degraded_accesses,
        static_cast<unsigned long long>(stats.virtual_elapsed_us));
  }
  for (const auto& tuple : out->table) {
    std::printf("(");
    for (size_t i = 0; i < tuple.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  universe->TermName(tuple[i]).c_str());
    }
    std::printf(")\n");
  }
  Table expected;
  for (auto& t : query->Evaluate(doc.data)) expected.insert(t);
  bool match = expected == out->table;
  std::printf("# direct evaluation: %zu tuples -> %s\n", expected.size(),
              match                ? "MATCH"
              : out->partial       ? "PARTIAL (sound underapproximation)"
                                   : "MISMATCH (incomplete answers!)");
  return 0;
}

int CmdContainment(ParsedDocument& doc, Universe* universe,
                   const CliOptions& cli) {
  if (cli.positional.size() < 2) return Usage();
  const ConjunctiveQuery* q1 = FindQuery(doc, cli.positional[0]);
  const ConjunctiveQuery* q2 = FindQuery(doc, cli.positional[1]);
  if (q1 == nullptr || q2 == nullptr) return 1;
  ConjunctiveQuery b1 = ConjunctiveQuery::Boolean(q1->atoms());
  ConjunctiveQuery b2 = ConjunctiveQuery::Boolean(q2->atoms());
  ContainmentOutcome outcome =
      CheckContainment(b1, b2, doc.schema.constraints(), universe);
  const char* verdict = outcome.verdict == ContainmentVerdict::kContained
                            ? "CONTAINED"
                        : outcome.verdict == ContainmentVerdict::kNotContained
                            ? "NOT CONTAINED"
                            : "UNKNOWN (budget)";
  std::printf("%s ⊆_Σ %s : %s  (chase: %llu rounds, %zu facts)\n",
              cli.positional[0].c_str(), cli.positional[1].c_str(), verdict,
              static_cast<unsigned long long>(outcome.chase.rounds),
              outcome.chase.instance.NumFacts());
  return 0;
}

int CmdSimplify(const ParsedDocument& doc, const CliOptions& cli) {
  if (cli.positional.empty()) return Usage();
  const std::string& mode = cli.positional[0];
  ServiceSchema out = doc.schema;
  if (mode == "existence") {
    out = ExistenceCheckSimplification(doc.schema);
  } else if (mode == "fd") {
    out = FdSimplification(doc.schema);
  } else if (mode == "choice") {
    out = ChoiceSimplification(doc.schema);
  } else if (mode == "elimub") {
    out = ElimUB(doc.schema);
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  std::printf("%s", out.ToString().c_str());
  return 0;
}

int CmdOracle(const ParsedDocument& doc, Universe* universe,
              const CliOptions& cli) {
  if (cli.positional.empty()) return Usage();
  const ConjunctiveQuery* query = FindQuery(doc, cli.positional[0]);
  if (query == nullptr) return 1;
  FrozenQuery frozen = FreezeQuery(*query, universe);
  CounterexampleSearchOptions options;
  options.attempts = cli.attempts;
  std::optional<AMonDetCounterexample> ce =
      SearchAMonDetCounterexample(doc.schema, frozen.boolean_q, options);
  if (!ce.has_value()) {
    std::printf("no counterexample found in %zu attempts (consistent with "
                "answerability)\n",
                options.attempts);
    return 0;
  }
  std::printf("counterexample found — the query is NOT monotone "
              "answerable.\nI1 (satisfies Q):\n%s\nI2 (violates Q):\n%s\n"
              "common access-valid subinstance:\n%s",
              ce->i1.ToString(*universe).c_str(),
              ce->i2.ToString(*universe).c_str(),
              ce->accessed.ToString(*universe).c_str());
  return 0;
}

int CmdExplain(const ParsedDocument& doc, Universe* universe,
               const CliOptions& cli) {
  if (cli.positional.empty()) return Usage();
  const char* query_name = cli.positional[0].c_str();
  const ConjunctiveQuery* query = FindQuery(doc, cli.positional[0]);
  if (query == nullptr) return 1;
  FrozenQuery frozen = FreezeQuery(*query, universe);

  ServiceSchema choice = ChoiceSimplification(doc.schema);
  StatusOr<AmonDetReduction> red = BuildAmonDetReduction(
      choice, frozen.boolean_q, {}, &frozen.accessible_constants);
  if (!red.ok()) {
    std::fprintf(stderr, "reduction failed: %s\n",
                 red.status().ToString().c_str());
    return 1;
  }
  ChaseOptions chase_options;
  chase_options.record_trace = true;
  chase_options.max_rounds = 300;
  chase_options.max_facts = 50000;
  bool goal = false;
  ChaseResult chase =
      RunChaseUntil(red->start, red->gamma, red->q_prime.atoms(), universe,
                    &goal, chase_options);
  if (goal) {
    std::printf("%s is ANSWERABLE. Chase proof (backward slice):\n\n",
                query_name);
    StatusOr<ProofSlice> slice = ExtractProofSlice(*red, chase);
    std::printf("%s", RenderProof(*red, chase, *universe,
                                  slice.ok() ? &*slice : nullptr)
                          .c_str());
    StatusOr<Plan> plan = ExtractPlanFromProof(doc.schema, *query);
    if (plan.ok()) {
      std::printf("\nExtracted plan:\n%s", plan->ToString(*universe).c_str());
    }
    return 0;
  }
  std::printf("%s is NOT answerable", query_name);
  StatusOr<AMonDetCounterexample> ce = ExtractCertificate(*red, chase);
  if (!ce.ok()) {
    std::printf(" (no finite certificate: %s)\n",
                ce.status().ToString().c_str());
    return 0;
  }
  std::printf(". Certificate:\n\n# I1 — satisfies the query\n%s\n"
              "# I2 — violates the query, same accessible data\n%s\n"
              "# common access-valid subinstance\n%s",
              SerializeDocument(doc.schema, {}, ce->i1).c_str(),
              SerializeDocument(doc.schema, {}, ce->i2).c_str(),
              SerializeDocument(doc.schema, {}, ce->accessed).c_str());
  return 0;
}

// Emits the containment cost profile requested via --profile[=path]: a
// JSON document to a file, or a human-readable top-K table to stdout.
int EmitProfile(const CliOptions& cli) {
  QueryProfiler& profiler = QueryProfiler::Default();
  if (!cli.profile_path.empty()) {
    std::ofstream out(cli.profile_path);
    if (!out) {
      std::fprintf(stderr, "cannot write profile to %s\n",
                   cli.profile_path.c_str());
      return 1;
    }
    out << profiler.ToJson() << "\n";
    return 0;
  }
  QueryProfileSnapshot snap = profiler.TakeSnapshot();
  std::printf(
      "# containment profile: %llu checks, %llu us total\n"
      "#   p50=%llu us  p90=%llu us  p99=%llu us  p999=%llu us  "
      "max=%llu us\n",
      static_cast<unsigned long long>(snap.checks),
      static_cast<unsigned long long>(snap.total_us),
      static_cast<unsigned long long>(snap.check_us.Quantile(0.50)),
      static_cast<unsigned long long>(snap.check_us.Quantile(0.90)),
      static_cast<unsigned long long>(snap.check_us.Quantile(0.99)),
      static_cast<unsigned long long>(snap.check_us.Quantile(0.999)),
      static_cast<unsigned long long>(snap.check_us.max));
  if (!snap.top_checks.empty()) {
    std::printf("# top %zu slowest checks:\n"
                "#   %10s %7s %8s %10s %6s %-16s %s\n",
                snap.top_checks.size(), "dur_us", "rounds", "facts",
                "hom_checks", "pruned", "goal", "label");
    for (const ContainmentCheckRecord& c : snap.top_checks) {
      std::printf("#   %10llu %7llu %8llu %10llu %6llu %-16s %s\n",
                  static_cast<unsigned long long>(c.duration_us),
                  static_cast<unsigned long long>(c.rounds),
                  static_cast<unsigned long long>(c.facts),
                  static_cast<unsigned long long>(c.hom_checks),
                  static_cast<unsigned long long>(c.pruned_constraints),
                  c.goal_relation.empty() ? "-" : c.goal_relation.c_str(),
                  c.label.empty() ? "-" : c.label.c_str());
    }
  }
  return 0;
}

// Emits the metrics snapshot requested via --metrics[=path].
int EmitMetrics(const CliOptions& cli) {
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  CliOptions cli;
  if (!CliOptions::Parse(argc, argv, &cli)) return 2;

  std::string text;
  if (!ReadFile(argv[2], &text)) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(text, &universe);
  if (!doc.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 doc.status().ToString().c_str());
    return 1;
  }

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
  if (cli.slow_check_us != 0) {
    QueryProfiler::Default().set_slow_check_threshold_us(cli.slow_check_us);
  }

  std::string cmd = argv[1];
  int code;
  if (cmd == "decide") {
    code = CmdDecide(*doc, &universe, text, cli);
  } else if (cmd == "plan") {
    code = CmdPlan(*doc, &universe, cli);
  } else if (cmd == "run") {
    code = CmdRun(*doc, &universe, cli);
  } else if (cmd == "containment") {
    code = CmdContainment(*doc, &universe, cli);
  } else if (cmd == "simplify") {
    code = CmdSimplify(*doc, cli);
  } else if (cmd == "oracle") {
    code = CmdOracle(*doc, &universe, cli);
  } else if (cmd == "explain") {
    code = CmdExplain(*doc, &universe, cli);
  } else {
    code = Usage();
  }

  if (trace_sink != nullptr) {
    SetTraceSink(nullptr);
    trace_sink->Flush();
  }
  if (cli.profile && code == 0) code = EmitProfile(cli);
  if (cli.metrics && code == 0) code = EmitMetrics(cli);
  return code;
}
