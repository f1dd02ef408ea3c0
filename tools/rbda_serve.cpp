// rbda_serve — the answerability daemon (docs/SERVING.md).
//
//   rbda_serve [--port=N] [--bind=ADDR] [--jobs=N]
//              [--max-queue=N] [--tenant-inflight=N]
//              [--max-frame-bytes=N] [--idle-timeout-ms=N]
//              [--default-deadline-ms=N] [--max-deadline-ms=N]
//              [--drain-timeout-ms=N] [--schema=NAME=FILE ...]
//              [--enable-debug-sleep] [--metrics-json=FILE]
//
// Serves the newline-delimited JSON protocol of src/serve/protocol.h.
// Prints "LISTENING port=N" on stdout once accepting (port 0 binds an
// ephemeral port — harnesses parse this line), then serves until SIGTERM
// or SIGINT, drains gracefully (stop accepting, answer or deadline-out
// everything in flight, flush), prints a final "SERVE_METRICS_JSON {...}"
// snapshot, and exits 0.
//
// --schema=NAME=FILE preloads a schema document at startup, so a fleet
// can boot with its working set before the first client connects.
#include <signal.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/server.h"

using namespace rbda;

namespace {

ServeServer* g_server = nullptr;

void HandleSignal(int) {
  // RequestDrain is async-signal-safe: an atomic store + one write().
  if (g_server != nullptr) g_server->RequestDrain();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: rbda_serve [--port=N] [--bind=ADDR] [--jobs=N] "
      "[--max-queue=N] [--tenant-inflight=N] [--max-frame-bytes=N] "
      "[--idle-timeout-ms=N] [--default-deadline-ms=N] "
      "[--max-deadline-ms=N] [--drain-timeout-ms=N] [--schema=NAME=FILE] "
      "[--enable-debug-sleep] [--metrics-json=FILE]\n");
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  std::vector<std::pair<std::string, std::string>> preload;
  std::string metrics_json_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    uint64_t n = 0;
    if (arg == "--port" && ParseUint(value, &n) && n <= 65535) {
      options.port = static_cast<uint16_t>(n);
    } else if (arg == "--bind") {
      options.bind_address = value;
    } else if (arg == "--jobs" && ParseUint(value, &n)) {
      options.jobs = n;
    } else if (arg == "--max-queue" && ParseUint(value, &n) && n > 0) {
      options.admission.max_queue = n;
    } else if (arg == "--tenant-inflight" && ParseUint(value, &n) && n > 0) {
      options.admission.per_tenant_inflight = n;
    } else if (arg == "--max-frame-bytes" && ParseUint(value, &n) && n > 0) {
      options.max_frame_bytes = n;
    } else if (arg == "--idle-timeout-ms" && ParseUint(value, &n)) {
      options.idle_timeout_ms = n;
    } else if (arg == "--default-deadline-ms" && ParseUint(value, &n) &&
               n > 0) {
      options.default_deadline_ms = n;
    } else if (arg == "--max-deadline-ms" && ParseUint(value, &n) && n > 0) {
      options.max_deadline_ms = n;
    } else if (arg == "--drain-timeout-ms" && ParseUint(value, &n)) {
      options.drain_timeout_ms = n;
    } else if (arg == "--enable-debug-sleep") {
      options.enable_debug_sleep = true;
    } else if (arg == "--metrics-json") {
      metrics_json_path = value;
    } else if (arg == "--schema") {
      size_t sep = value.find('=');
      if (sep == std::string::npos) {
        std::fprintf(stderr, "--schema needs NAME=FILE\n");
        return Usage();
      }
      preload.emplace_back(value.substr(0, sep), value.substr(sep + 1));
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage();
    }
  }

  ServeServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "rbda_serve: %s\n", started.ToString().c_str());
    return 1;
  }

  for (const auto& [name, path] : preload) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot read schema file '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    StatusOr<uint64_t> epoch = server.registry().Load(name, text.str());
    if (!epoch.ok()) {
      std::fprintf(stderr, "schema '%s': %s\n", name.c_str(),
                   epoch.status().ToString().c_str());
      return 1;
    }
  }

  g_server = &server;
  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // dead sockets are per-write errors, not fatal

  std::printf("LISTENING port=%u\n", server.port());
  std::fflush(stdout);

  Status served = server.Serve();
  g_server = nullptr;

  std::string snapshot = SnapshotToJson(MetricsRegistry::Default());
  std::printf("SERVE_METRICS_JSON %s\n", snapshot.c_str());
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path);
    if (out) out << snapshot << "\n";
  }
  if (!served.ok()) {
    std::fprintf(stderr, "rbda_serve: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
