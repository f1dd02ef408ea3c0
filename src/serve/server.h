// The rbda_serve answerability daemon (docs/SERVING.md).
//
// One I/O thread owns every socket and runs a poll() loop; engine work
// (decide / run / load-schema) executes on the work-stealing TaskPool.
// Workers never touch sockets: a finished request appends its response to
// the connection's outbox and wakes the I/O thread through a self-pipe.
//
// Robustness properties (docs/ROBUSTNESS.md):
//   - Bounded admission: past AdmissionOptions::max_queue pending
//     requests the daemon sheds with an explicit `overloaded` response —
//     queue memory never grows with offered load.
//   - End-to-end deadlines: the per-request budget starts at arrival, so
//     queue wait counts; a request whose deadline expires while queued is
//     rejected at dequeue without touching the engine.
//   - Per-tenant caps and a per-schema CircuitBreaker bound what one
//     tenant or one pathological schema can consume.
//   - Defensive framing: malformed JSON is answered with `bad_request`,
//     oversized frames with `frame_too_large` + close, idle connections
//     are reaped, partial frames wait in a bounded buffer.
//   - Graceful drain: RequestDrain() (async-signal-safe) stops the
//     listener, answers new work `shutting_down`, lets every admitted
//     request finish or deadline out — each with a response — flushes,
//     and returns from Serve().
#ifndef RBDA_SERVE_SERVER_H_
#define RBDA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "base/status.h"
#include "base/task_pool.h"
#include "core/answerability.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace rbda {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound port
  size_t jobs = 0;    // engine workers; 0 = ResolveJobs (RBDA_JOBS or 1)

  AdmissionOptions admission;
  CircuitBreakerOptions breaker;  // per-schema engine breaker

  size_t max_frame_bytes = 1 << 20;   // request line cap
  size_t max_outbox_bytes = 8 << 20;  // per-connection pending writes cap
  uint64_t idle_timeout_ms = 60000;   // reap silent connections
  uint64_t default_deadline_ms = 2000;
  uint64_t max_deadline_ms = 60000;  // client deadlines clamp to this
  uint64_t drain_timeout_ms = 30000;

  size_t cache_entries_per_shard = 8192;  // decision cache bound
  /// Honor the request field "debug_sleep_us" (tests manufacture slow
  /// requests with it). Off in production: a client must not be able to
  /// hold a worker by asking politely.
  bool enable_debug_sleep = false;

  DecisionOptions decide;  // engine budgets for every decide
};

class ServeServer {
 public:
  explicit ServeServer(const ServerOptions& options);
  virtual ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds and listens. After Ok, port() is the bound port.
  Status Start();
  uint16_t port() const { return port_; }

  /// Runs the I/O loop on the calling thread until a drain completes.
  /// Returns Ok on a clean drain (every admitted request answered).
  Status Serve();

  /// Begins graceful drain. Thread-safe and async-signal-safe (an atomic
  /// store plus one write() on the self-pipe), so SIGTERM handlers may
  /// call it directly.
  void RequestDrain();

  bool draining() const {
    return drain_requested_.load(std::memory_order_relaxed);
  }

  // Introspection for tests and the /metrics flush.
  const AdmissionController& admission() const { return admission_; }
  SchemaRegistry& registry() { return registry_; }

 protected:
  // Executes one admitted request and renders its reply. Virtual so that
  // tests can stand in a handler that throws; an exception becomes an
  // engine_error reply.
  virtual std::string Dispatch(const ServeRequest& req);

 private:
  struct Conn;
  struct Metrics;

  uint64_t NowUs() const;
  void WakeIo();

  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  void HandleLine(const std::shared_ptr<Conn>& conn, std::string line,
                  uint64_t arrival_us);
  void Respond(const std::shared_ptr<Conn>& conn, std::string response);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  bool OutboxesFlushed();

  // Worker-side execution of an admitted request.
  void ExecuteAdmitted(std::shared_ptr<Conn> conn, ServeRequest req,
                       uint64_t arrival_us, uint64_t deadline_us);
  std::string DoLoadSchema(const ServeRequest& req);
  std::string DoDecide(const ServeRequest& req);
  std::string DoRun(const ServeRequest& req);
  std::string HealthBody();

  ServerOptions options_;
  AdmissionController admission_;
  SchemaRegistry registry_;
  DecisionCache cache_;
  std::unique_ptr<TaskPool> pool_;
  const Metrics* metrics_;

  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  uint16_t port_ = 0;
  std::chrono::steady_clock::time_point start_;

  std::atomic<bool> drain_requested_{false};
  bool drain_started_ = false;  // I/O thread only

  uint64_t next_conn_id_ = 1;                       // I/O thread only
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;  // I/O thread only
};

}  // namespace rbda

#endif  // RBDA_SERVE_SERVER_H_
