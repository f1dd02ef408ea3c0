// perfbench: the repository's benchmark. Runs one workload and prints, as
// the last line of standard output, one JSON object with the fields
// correct / attempted / failed / metrics. Informational lines before it
// are "<tag> {json}".
//
//   perfbench --workload decide_mix|table1|serve --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 reruns the workload
// with the benchmark's spans on and prints the per-layer metrics. The exit
// code is 0 only when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "decide_mix|table1|serve --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0) return Usage("bad --seconds");
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("bad --trace");
      args.trace = n == 1;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == "decide_mix") return perfbench::RunDecideMix(args);
  if (args.workload == "table1") return perfbench::RunTable1(args);
  if (args.workload == "serve") return perfbench::RunServe(args);
  return Usage("unknown --workload");
}
