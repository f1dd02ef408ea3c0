// The differential fuzzing loop: generate → serialize → reparse → check →
// shrink → persist.
//
// Each case is drawn from one of the four generator families
// (runtime/schema_generators.h), perturbed by random mutations
// (fuzz/mutators.h), serialized to the .rbda DSL, and *reparsed into a
// fresh Universe* before the checker battery runs — so a finding is a
// property of the document alone, and the persisted repro file replays it
// bit for bit (fuzz/checkers.h). Findings are minimized by the greedy
// shrinker (fuzz/shrink.h) under the predicate "the same checker still
// fires", and written under `out_dir` as loadable .rbda files whose header
// comments record the seed, case index, checker, and detail.
#ifndef RBDA_FUZZ_FUZZER_H_
#define RBDA_FUZZ_FUZZER_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "fuzz/checkers.h"

namespace rbda {

/// The schema generator families the fuzzer draws from.
enum class FuzzFamily { kId, kFd, kUidFd, kChain };

const char* FuzzFamilyName(FuzzFamily f);

/// Parses "id" / "fd" / "uidfd" / "chain" (as used by --fragment).
bool ParseFuzzFamily(std::string_view name, FuzzFamily* out);

struct FuzzOptions {
  uint64_t seed = 1;
  uint64_t iters = 100;
  /// Restrict to one family; unset = rotate through all four.
  std::optional<FuzzFamily> family;
  bool shrink = true;
  /// Directory for minimized repro files, created if missing; empty = keep
  /// findings in memory only.
  std::string out_dir;
  /// Mutations applied per case are drawn from [0, max_mutations].
  size_t max_mutations = 2;
  /// Worker threads for the case loop (0 = consult RBDA_JOBS, else 1).
  /// Cases are pure functions of (seed, index) and findings are aggregated
  /// by case index, so any job count yields an identical report.
  size_t jobs = 1;
  CheckerOptions checkers;  // checkers.seed is overridden per case
};

struct FuzzFinding {
  uint64_t case_index = 0;
  uint64_t case_seed = 0;
  FuzzFamily family = FuzzFamily::kId;
  std::string checker;     // first checker that fired
  std::string detail;
  std::string document;    // the full generated case
  std::string shrunk;      // minimized repro (== document if shrinking off)
  std::string repro_path;  // file written under out_dir; empty if none was
};

struct FuzzReport {
  uint64_t cases = 0;
  std::vector<FuzzFinding> findings;
};

/// The per-case seed: a splitmix64 mix of the run seed and case index, so
/// neighbouring cases are decorrelated and any case is reproducible alone.
uint64_t FuzzCaseSeed(uint64_t run_seed, uint64_t case_index);

/// Generates the serialized .rbda document for one case. Pure function of
/// (options.seed, index, options.family, options.max_mutations).
std::string GenerateCaseDocument(const FuzzOptions& options, uint64_t index,
                                 FuzzFamily* family_out);

/// Parses `document` into a fresh Universe and runs the checker battery on
/// its first query (with the document's facts as seed data). Fails if the
/// document does not parse or declares no query.
StatusOr<CheckReport> ReplayDocument(const std::string& document,
                                     const CheckerOptions& checkers);

/// The repro file a finding is written to under `out_dir`.
std::string ReproFilePath(const std::string& out_dir,
                          const FuzzFinding& finding);

/// Runs the full loop.
FuzzReport RunFuzzer(const FuzzOptions& options);

}  // namespace rbda

#endif  // RBDA_FUZZ_FUZZER_H_
