#include "fuzz/fuzzer.h"

#include <filesystem>
#include <fstream>
#include <map>

#include "base/task_pool.h"
#include "fuzz/mutators.h"
#include "fuzz/shrink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "parser/serializer.h"
#include "runtime/schema_generators.h"

namespace rbda {

namespace {

struct FuzzLoopMetrics {
  Counter* cases;
  Counter* cases_with_findings;
  Counter* repro_files_written;
  Distribution* case_us;
};

const FuzzLoopMetrics& Metrics() {
  static const FuzzLoopMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return FuzzLoopMetrics{
        r.GetCounter("fuzz.cases"),
        r.GetCounter("fuzz.cases_with_findings"),
        r.GetCounter("fuzz.repro_files_written"),
        r.GetDistribution("fuzz.case_us"),
    };
  }();
  return m;
}

FuzzFamily PickFamily(const FuzzOptions& options, uint64_t index) {
  if (options.family.has_value()) return *options.family;
  constexpr FuzzFamily kAll[] = {FuzzFamily::kId, FuzzFamily::kFd,
                                 FuzzFamily::kUidFd, FuzzFamily::kChain};
  return kAll[index % std::size(kAll)];
}

ServiceSchema GenerateFamilySchema(FuzzFamily family, Universe* universe,
                                   Rng* rng) {
  if (family == FuzzFamily::kChain) {
    size_t length = 2 + rng->Below(3);
    return GenerateChainSchema(universe, length,
                               /*arity=*/1 + static_cast<uint32_t>(
                                   rng->Below(2)),
                               /*bounded_prefix=*/rng->Below(length + 1),
                               /*bound=*/1 + static_cast<uint32_t>(
                                   rng->Below(3)),
                               /*prefix=*/"F");
  }
  SchemaFamilyOptions fam;
  fam.num_relations = 2 + rng->Below(3);
  fam.min_arity = 1;
  fam.max_arity = 2 + static_cast<uint32_t>(rng->Below(2));
  fam.num_constraints = 1 + rng->Below(3);
  fam.num_methods = 2 + rng->Below(2);
  fam.bounded_pct = 60;
  fam.max_bound = 3;
  fam.prefix = "F";
  switch (family) {
    case FuzzFamily::kId:
      return GenerateIdSchema(universe, fam, rng);
    case FuzzFamily::kFd:
      fam.min_arity = 2;
      return GenerateFdSchema(universe, fam, rng);
    case FuzzFamily::kUidFd:
      fam.min_arity = 2;
      return GenerateUidFdSchema(universe, fam, rng);
    case FuzzFamily::kChain:
      break;  // handled above
  }
  return GenerateIdSchema(universe, fam, rng);
}

void WriteReproFile(const FuzzOptions& options, FuzzFinding* finding) {
  if (options.out_dir.empty()) return;
  std::string path = ReproFilePath(options.out_dir, *finding);
  // A directory that cannot be created shows up as the open failing.
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);
  std::ofstream out(path);
  if (!out.is_open()) return;
  out << "# fuzz finding: checker=" << finding->checker << "\n"
      << "# detail: " << finding->detail << "\n"
      << "# replay: rbda_fuzz --replay <this file> --seed "
      << finding->case_seed << "\n"
      << "# run seed / case: " << finding->case_seed << " / "
      << finding->case_index << " (family "
      << FuzzFamilyName(finding->family) << ")\n"
      << finding->shrunk;
  out.close();
  finding->repro_path = path;
  Metrics().repro_files_written->Increment();
}

}  // namespace

const char* FuzzFamilyName(FuzzFamily f) {
  switch (f) {
    case FuzzFamily::kId:
      return "id";
    case FuzzFamily::kFd:
      return "fd";
    case FuzzFamily::kUidFd:
      return "uidfd";
    case FuzzFamily::kChain:
      return "chain";
  }
  return "unknown";
}

bool ParseFuzzFamily(std::string_view name, FuzzFamily* out) {
  if (name == "id") {
    *out = FuzzFamily::kId;
  } else if (name == "fd") {
    *out = FuzzFamily::kFd;
  } else if (name == "uidfd") {
    *out = FuzzFamily::kUidFd;
  } else if (name == "chain") {
    *out = FuzzFamily::kChain;
  } else {
    return false;
  }
  return true;
}

uint64_t FuzzCaseSeed(uint64_t run_seed, uint64_t case_index) {
  uint64_t z = run_seed + (case_index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string GenerateCaseDocument(const FuzzOptions& options, uint64_t index,
                                 FuzzFamily* family_out) {
  FuzzFamily family = PickFamily(options, index);
  if (family_out != nullptr) *family_out = family;
  Rng rng(FuzzCaseSeed(options.seed, index));
  Universe universe;
  ServiceSchema schema = GenerateFamilySchema(family, &universe, &rng);
  ApplyRandomMutations(&schema, rng.Below(options.max_mutations + 1), &rng);
  ConjunctiveQuery query =
      GenerateQuery(schema, /*num_atoms=*/1 + rng.Below(2),
                    /*num_variables=*/2 + rng.Below(2), &rng);
  return SerializeDocument(schema, {{"Q", query}});
}

StatusOr<CheckReport> ReplayDocument(const std::string& document,
                                     const CheckerOptions& checkers) {
  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(document, &universe);
  if (!doc.ok()) return doc.status();
  if (doc->queries.empty()) {
    return Status::InvalidArgument("document declares no query");
  }
  const ConjunctiveQuery& query = doc->queries.begin()->second;
  return RunCheckerBattery(doc->schema, query, checkers, &doc->data);
}

namespace {

// One fuzz case, self-contained: generation, replay, and shrinking all
// derive from (options.seed, index) and run against fresh Universes, so
// distinct cases may execute concurrently. Repro persistence and trace
// emission stay with the (index-ordered) aggregation in RunFuzzer.
std::optional<FuzzFinding> RunOneCase(const FuzzOptions& options,
                                      uint64_t index) {
  ScopedTimer case_timer(Metrics().case_us);
  Metrics().cases->Increment();

  FuzzFamily family = FuzzFamily::kId;
  std::string document = GenerateCaseDocument(options, index, &family);
  CheckerOptions checkers = options.checkers;
  checkers.seed = FuzzCaseSeed(options.seed, index);

  StatusOr<CheckReport> outcome = ReplayDocument(document, checkers);
  if (outcome.ok() && outcome->AllAgree()) return std::nullopt;
  FuzzFinding finding;
  if (!outcome.ok()) {
    // The serializer emitted something its own parser rejects: that is
    // itself a bug (the shrinker and corpus depend on the round-trip).
    finding.checker = "generate-parse";
    finding.detail = outcome.status().ToString();
  } else {
    finding.checker = outcome->findings.front().checker;
    finding.detail = outcome->findings.front().detail;
  }
  finding.case_index = index;
  finding.case_seed = checkers.seed;
  finding.family = family;
  finding.document = document;
  finding.shrunk = document;

  if (options.shrink && outcome.ok()) {
    const std::string target = finding.checker;
    ShrinkResult shrunk = ShrinkDocument(
        document, [&checkers, &target](const std::string& candidate) {
          StatusOr<CheckReport> replay = ReplayDocument(candidate, checkers);
          return replay.ok() && replay->Has(target);
        });
    finding.shrunk = shrunk.document;
  }
  return finding;
}

}  // namespace

std::string ReproFilePath(const std::string& out_dir,
                          const FuzzFinding& finding) {
  return out_dir + "/finding_" + finding.checker + "_case" +
         std::to_string(finding.case_index) + ".rbda";
}

FuzzReport RunFuzzer(const FuzzOptions& options) {
  FuzzReport report;
  report.cases = options.iters;
  size_t jobs = ResolveJobs(options.jobs);

  // Fan the case loop out over the pool (inline and in index order when
  // jobs=1), then aggregate strictly by case index: repro files, metrics,
  // traces, and the findings vector come out identical at any job count.
  StatusOr<std::vector<std::optional<FuzzFinding>>> slots =
      ParallelMap<std::optional<FuzzFinding>>(
          options.iters, jobs,
          [&options](size_t index) -> StatusOr<std::optional<FuzzFinding>> {
            return RunOneCase(options, index);
          });
  if (!slots.ok()) return report;  // unreachable: RunOneCase never fails

  for (std::optional<FuzzFinding>& slot : *slots) {
    if (!slot.has_value()) continue;
    FuzzFinding finding = std::move(*slot);
    WriteReproFile(options, &finding);
    Metrics().cases_with_findings->Increment();
    TraceEventRecord("fuzz.finding",
                     {{"case", static_cast<int64_t>(finding.case_index)}},
                     {{"checker", finding.checker}});
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace rbda
