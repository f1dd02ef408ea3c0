#include "serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <vector>

#include "core/plan_synthesis.h"
#include "core/proof_plans.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "runtime/access_selection.h"
#include "runtime/executor.h"

namespace rbda {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::string(strerror(errno)));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// Process-wide serve metric handles (docs/OBSERVABILITY.md).
struct ServeServer::Metrics {
  Counter* requests;
  Counter* shed_decide;
  Counter* shed_run;
  Counter* shed_load;
  Counter* deadline_in_queue;
  Counter* deadline_exceeded;
  Counter* tenant_rejects;
  Counter* breaker_rejects;
  Counter* bad_request;
  Counter* frames_oversized;
  Counter* idle_closed;
  Counter* cache_hits;
  Counter* cache_misses;
  Gauge* queue_depth;
  Gauge* connections;
  Distribution* decide_latency_us;
  Distribution* run_latency_us;
  Distribution* load_latency_us;

  static const Metrics* Get() {
    static const Metrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      auto* out = new Metrics{
          r.GetCounter("serve.requests"),
          r.GetCounter("serve.shed.decide"),
          r.GetCounter("serve.shed.run"),
          r.GetCounter("serve.shed.load-schema"),
          r.GetCounter("serve.deadline_in_queue"),
          r.GetCounter("serve.deadline_exceeded"),
          r.GetCounter("serve.tenant_rejects"),
          r.GetCounter("serve.breaker_rejects"),
          r.GetCounter("serve.bad_request"),
          r.GetCounter("serve.frames_oversized"),
          r.GetCounter("serve.idle_closed"),
          r.GetCounter("serve.cache.hits"),
          r.GetCounter("serve.cache.misses"),
          r.GetGauge("serve.queue.depth"),
          r.GetGauge("serve.connections"),
          r.GetDistribution("serve.latency.decide_us"),
          r.GetDistribution("serve.latency.run_us"),
          r.GetDistribution("serve.latency.load_us"),
      };
      return out;
    }();
    return m;
  }

  Counter* ShedFor(ServeOp op) const {
    switch (op) {
      case ServeOp::kRun:
        return shed_run;
      case ServeOp::kLoadSchema:
        return shed_load;
      default:
        return shed_decide;
    }
  }
};

/// One client connection. The fd and the input buffer belong to the I/O
/// thread; the outbox is the only worker-visible state, guarded by `mu`.
struct ServeServer::Conn {
  uint64_t id = 0;
  int fd = -1;
  std::string in;                 // partial frame(s), I/O thread only
  uint64_t last_activity_us = 0;  // I/O thread only
  bool close_after_flush = false;  // I/O thread only
  /// Requests admitted from this connection whose responses have not been
  /// enqueued yet. A half-closed connection (client EOF after sending)
  /// stays open until these are answered and flushed.
  std::atomic<size_t> pending{0};

  std::mutex mu;
  std::string out;      // bytes awaiting write
  bool closed = false;  // set once by the I/O thread at close

  /// Worker-safe response append. Returns false when the connection is
  /// gone or its outbox is saturated (slow reader: connection is doomed,
  /// dropping the response is the bounded-memory choice).
  bool Enqueue(std::string_view response, size_t max_outbox) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return false;
    if (out.size() + response.size() > max_outbox) return false;
    out.append(response);
    return true;
  }
};

ServeServer::ServeServer(const ServerOptions& options)
    : options_(options),
      admission_(options.admission),
      registry_(options.breaker),
      cache_(options.cache_entries_per_shard),
      metrics_(Metrics::Get()),
      start_(std::chrono::steady_clock::now()) {}

ServeServer::~ServeServer() {
  pool_.reset();  // joins workers before conns_ goes away
  for (auto& [id, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed) {
      close(conn->fd);
      conn->closed = true;
    }
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_r_ >= 0) close(wake_r_);
  if (wake_w_ >= 0) close(wake_w_);
}

uint64_t ServeServer::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void ServeServer::WakeIo() {
  char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  ssize_t ignored = write(wake_w_, &byte, 1);
  (void)ignored;
}

Status ServeServer::Start() {
  int fds[2];
  if (pipe(fds) != 0) return Errno("pipe");
  wake_r_ = fds[0];
  wake_w_ = fds[1];
  if (!SetNonBlocking(wake_r_) || !SetNonBlocking(wake_w_)) {
    return Errno("fcntl(wake pipe)");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, 128) != 0) return Errno("listen");
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listen)");

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  size_t jobs = std::max<size_t>(1, ResolveJobs(options_.jobs));
  pool_ = std::make_unique<TaskPool>(jobs);
  return Status::Ok();
}

void ServeServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  WakeIo();
}

Status ServeServer::Serve() {
  if (listen_fd_ < 0) return Status::FailedPrecondition("Start() first");
  uint64_t drain_began_us = 0;
  while (true) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    fds.push_back({wake_r_, POLLIN, 0});
    const bool listener_polled = !drain_started_;
    if (listener_polled) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [id, conn] : conns_) {
      // After client EOF, stop polling for input (it would signal
      // forever); the wake pipe covers response arrival.
      short events = conn->close_after_flush ? 0 : POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->out.empty()) events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }

    int timeout_ms = drain_started_ ? 10 : 1000;
    int rc = poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) return Errno("poll");

    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_r_, buf, sizeof(buf)) > 0) {
      }
    }

    if (drain_requested_.load(std::memory_order_relaxed) &&
        !drain_started_) {
      drain_started_ = true;
      drain_began_us = NowUs();
      close(listen_fd_);
      listen_fd_ = -1;
      TraceEventRecord("serve.drain",
                       {{"in_flight",
                         static_cast<int64_t>(admission_.in_flight())}},
                       {});
    }

    // `base` indexes the first connection entry in `fds`; it depends on
    // what was *polled*, not on the drain flag (which may have flipped
    // just above, after the array was built).
    size_t base = listener_polled ? 2 : 1;
    if (listener_polled && !drain_started_ && (fds[1].revents & POLLIN)) {
      AcceptNew();
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const pollfd& p = fds[base + i];
      const std::shared_ptr<Conn>& conn = polled[i];
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush what we can (a closing client may still read), then drop.
        HandleWritable(conn);
        CloseConn(conn);
        continue;
      }
      if (p.revents & POLLIN) HandleReadable(conn);
      if (p.revents & POLLOUT) HandleWritable(conn);
      bool outbox_empty;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        outbox_empty = conn->out.empty();
      }
      if (conn->close_after_flush && outbox_empty &&
          conn->pending.load(std::memory_order_acquire) == 0) {
        HandleWritable(conn);  // responses may have landed since the check
        CloseConn(conn);
      }
    }

    // Idle sweep (not during drain: drain closes everything at the end).
    if (!drain_started_ && options_.idle_timeout_ms > 0) {
      uint64_t now = NowUs();
      std::vector<std::shared_ptr<Conn>> idle;
      for (auto& [id, conn] : conns_) {
        if (now - conn->last_activity_us >
            options_.idle_timeout_ms * 1000) {
          idle.push_back(conn);
        }
      }
      for (const auto& conn : idle) {
        metrics_->idle_closed->Increment();
        CloseConn(conn);
      }
    }

    if (drain_started_) {
      bool timed_out = options_.drain_timeout_ms > 0 &&
                       NowUs() - drain_began_us >
                           options_.drain_timeout_ms * 1000;
      // in_flight hits zero only after every worker has enqueued its
      // response (Enqueue happens-before OnComplete), so checking the
      // outboxes afterwards cannot miss a response.
      if ((admission_.in_flight() == 0 && OutboxesFlushed()) || timed_out) {
        std::vector<std::shared_ptr<Conn>> all;
        for (auto& [id, conn] : conns_) all.push_back(conn);
        for (const auto& conn : all) CloseConn(conn);
        pool_->Wait();
        if (timed_out) {
          return Status::DeadlineExceeded("drain timed out");
        }
        return Status::Ok();
      }
    }
  }
}

bool ServeServer::OutboxesFlushed() {
  for (auto& [id, conn] : conns_) {
    HandleWritable(conn);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->out.empty()) return false;
  }
  return true;
}

void ServeServer::AcceptNew() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->last_activity_us = NowUs();
    conns_[conn->id] = conn;
    metrics_->connections->Set(conns_.size());
  }
}

void ServeServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    close(conn->fd);
  }
  conns_.erase(conn->id);
  metrics_->connections->Set(conns_.size());
}

void ServeServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      if (conn->in.size() > options_.max_frame_bytes &&
          conn->in.find('\n') == std::string::npos) {
        // A frame larger than the cap: answer, then close — there is no
        // way to resynchronize without buffering the oversized line.
        metrics_->frames_oversized->Increment();
        Respond(conn, RenderServeError("", serve_error::kFrameTooLarge,
                                       "request frame exceeds " +
                                           std::to_string(
                                               options_.max_frame_bytes) +
                                           " bytes"));
        conn->in.clear();
        conn->close_after_flush = true;
        return;
      }
      continue;
    }
    if (n == 0) {  // EOF: answer what was framed, then close
      conn->close_after_flush = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  conn->last_activity_us = NowUs();

  size_t start = 0;
  while (true) {
    size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn->in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.size() > options_.max_frame_bytes) {
      metrics_->frames_oversized->Increment();
      Respond(conn, RenderServeError("", serve_error::kFrameTooLarge, ""));
      conn->close_after_flush = true;
      break;
    }
    HandleLine(conn, std::move(line), NowUs());
  }
  conn->in.erase(0, start);
}

void ServeServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) return;
  while (!conn->out.empty()) {
    ssize_t n = write(conn->fd, conn->out.data(), conn->out.size());
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: poll will retry. Hard errors surface as POLLERR/POLLHUP on
    // the next loop; either way stop writing now.
    break;
  }
}

void ServeServer::Respond(const std::shared_ptr<Conn>& conn,
                          std::string response) {
  conn->Enqueue(response, options_.max_outbox_bytes);
  // I/O thread calls this synchronously; an immediate flush attempt keeps
  // small responses off the next poll round.
  HandleWritable(conn);
}

std::string ServeServer::HealthBody() {
  JsonObjectWriter w;
  w.AddString("status", drain_started_ || draining() ? "draining"
                                                     : "serving");
  w.AddUint("schemas", registry_.size());
  w.AddUint("queue_depth", admission_.queue_depth());
  w.AddUint("in_flight", admission_.in_flight());
  w.AddUint("uptime_us", NowUs());
  std::string obj = w.ToJson();
  return "\"health\":" + obj;
}

void ServeServer::HandleLine(const std::shared_ptr<Conn>& conn,
                             std::string line, uint64_t arrival_us) {
  metrics_->requests->Increment();
  StatusOr<ServeRequest> parsed = ParseServeRequest(line);
  if (!parsed.ok()) {
    metrics_->bad_request->Increment();
    Respond(conn, RenderServeError("", serve_error::kBadRequest,
                                   parsed.status().message()));
    return;
  }
  ServeRequest req = std::move(*parsed);

  // Health and metrics answer inline on the I/O thread: they must stay
  // responsive under the very overload that fills the queue.
  if (req.op == ServeOp::kHealth) {
    Respond(conn, RenderServeOk(req.id, HealthBody()));
    return;
  }
  if (req.op == ServeOp::kMetrics) {
    Respond(conn,
            RenderServeOk(req.id, "\"metrics\":" +
                                      SnapshotToJson(
                                          MetricsRegistry::Default())));
    return;
  }

  if (drain_started_ || draining()) {
    Respond(conn, RenderServeError(req.id, serve_error::kShuttingDown,
                                   "daemon is draining"));
    return;
  }

  switch (admission_.TryAdmit(req.tenant)) {
    case AdmissionController::Verdict::kQueueFull: {
      metrics_->ShedFor(req.op)->Increment();
      metrics_->queue_depth->Set(admission_.queue_depth());
      TraceEventRecord(
          "serve.overload",
          {{"queue_depth",
            static_cast<int64_t>(admission_.queue_depth())}},
          {{"op", ServeOpName(req.op)}, {"tenant", req.tenant}});
      Respond(conn, RenderServeError(req.id, serve_error::kOverloaded,
                                     "admission queue full"));
      return;
    }
    case AdmissionController::Verdict::kTenantOverLimit: {
      metrics_->tenant_rejects->Increment();
      Respond(conn,
              RenderServeError(req.id, serve_error::kTenantOverLimit,
                               "tenant concurrency cap reached"));
      return;
    }
    case AdmissionController::Verdict::kAdmitted:
      break;
  }
  metrics_->queue_depth->Set(admission_.queue_depth());

  uint64_t deadline_ms = req.deadline_ms == 0 ? options_.default_deadline_ms
                                              : req.deadline_ms;
  deadline_ms = std::min(deadline_ms, options_.max_deadline_ms);
  uint64_t deadline_us = arrival_us + deadline_ms * 1000;
  conn->pending.fetch_add(1);
  pool_->Submit([this, conn, req = std::move(req), arrival_us,
                 deadline_us]() mutable {
    ExecuteAdmitted(std::move(conn), std::move(req), arrival_us,
                    deadline_us);
  });
}

void ServeServer::ExecuteAdmitted(std::shared_ptr<Conn> conn,
                                  ServeRequest req, uint64_t arrival_us,
                                  uint64_t deadline_us) {
  admission_.OnDequeue();
  metrics_->queue_depth->Set(admission_.queue_depth());

  std::string response;
  uint64_t now = NowUs();
  if (now > deadline_us) {
    // The budget died in the queue: reject without touching the engine.
    metrics_->deadline_in_queue->Increment();
    response = RenderServeError(req.id, serve_error::kDeadlineInQueue,
                                "deadline expired after " +
                                    std::to_string(now - arrival_us) +
                                    "us in queue");
  } else {
    if (options_.enable_debug_sleep && req.debug_sleep_us > 0) {
      usleep(static_cast<useconds_t>(
          std::min<uint64_t>(req.debug_sleep_us, 5000000)));
    }
    // The task pool only records what a task throws, so a throwing
    // handler would leave its client unanswered and hold its admission
    // slot: answer it here, and let the epilogue below run.
    try {
      response = Dispatch(req);
    } catch (const std::exception& e) {
      response = RenderServeError(req.id, serve_error::kEngineError,
                                  std::string("handler threw: ") + e.what());
    } catch (...) {
      response = RenderServeError(req.id, serve_error::kEngineError,
                                  "handler threw a non-standard exception");
    }
    now = NowUs();
    if (now > deadline_us) {
      metrics_->deadline_exceeded->Increment();
      response = RenderServeError(
          req.id, serve_error::kDeadlineExceeded,
          "completed after " + std::to_string(now - arrival_us) +
              "us, budget was " +
              std::to_string(deadline_us - arrival_us) + "us");
    }
  }

  uint64_t latency = NowUs() - arrival_us;
  switch (req.op) {
    case ServeOp::kDecide:
      metrics_->decide_latency_us->Record(latency);
      break;
    case ServeOp::kRun:
      metrics_->run_latency_us->Record(latency);
      break;
    case ServeOp::kLoadSchema:
      metrics_->load_latency_us->Record(latency);
      break;
    default:
      break;
  }

  conn->Enqueue(response, options_.max_outbox_bytes);
  conn->pending.fetch_sub(1, std::memory_order_release);
  admission_.OnComplete(req.tenant);
  WakeIo();
}

std::string ServeServer::Dispatch(const ServeRequest& req) {
  switch (req.op) {
    case ServeOp::kLoadSchema:
      return DoLoadSchema(req);
    case ServeOp::kDecide:
      return DoDecide(req);
    case ServeOp::kRun:
      return DoRun(req);
    default:
      return RenderServeError(req.id, serve_error::kBadRequest,
                              "op not executable");
  }
}

std::string ServeServer::DoLoadSchema(const ServeRequest& req) {
  StatusOr<uint64_t> epoch = registry_.Load(req.name, req.document);
  if (!epoch.ok()) {
    return RenderServeError(req.id, serve_error::kBadRequest,
                            epoch.status().message());
  }
  JsonObjectWriter w;
  w.AddString("name", req.name);
  w.AddUint("epoch", *epoch);
  return RenderServeOk(req.id, "\"loaded\":" + w.ToJson());
}

std::string ServeServer::DoDecide(const ServeRequest& req) {
  std::shared_ptr<SchemaEntry> entry = registry_.Find(req.schema);
  if (entry == nullptr) {
    return RenderServeError(req.id, serve_error::kNotFound,
                            "schema '" + req.schema + "' is not loaded");
  }
  bool is_text = !req.query_text.empty();
  const std::string& query_key = is_text ? req.query_text : req.query;
  std::string key = DecisionCache::Key(entry->name, entry->epoch, query_key,
                                       is_text, req.finite, req.naive);
  std::string body;
  if (cache_.Lookup(key, &body)) {
    metrics_->cache_hits->Increment();
    return RenderServeOk(req.id, body + ",\"cached\":true");
  }
  metrics_->cache_misses->Increment();

  // Fresh Universe per request: interning is not thread-safe and a fresh
  // parse keeps term ids deterministic.
  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(entry->text, &universe);
  if (!doc.ok()) {
    // The text parsed at load time; failure here is a daemon bug.
    return RenderServeError(req.id, serve_error::kEngineError,
                            doc.status().message());
  }

  ConjunctiveQuery query = ConjunctiveQuery::Boolean({});
  if (is_text) {
    StatusOr<ConjunctiveQuery> parsed_q =
        ParseQuery(req.query_text, &universe);
    if (!parsed_q.ok()) {
      return RenderServeError(req.id, serve_error::kBadRequest,
                              parsed_q.status().message());
    }
    query = std::move(*parsed_q);
  } else {
    auto it = doc->queries.find(req.query);
    if (it == doc->queries.end()) {
      return RenderServeError(req.id, serve_error::kUnknownQuery,
                              "schema '" + req.schema + "' has no query '" +
                                  req.query + "'");
    }
    query = it->second;
  }

  // The breaker guards the engine only: registry misses and client
  // mistakes above are not engine failures and must not trip it.
  if (!entry->AllowEngineCall(NowUs())) {
    metrics_->breaker_rejects->Increment();
    return RenderServeError(req.id, serve_error::kBreakerOpen,
                            "schema breaker is open");
  }

  ScopedProfileLabel profile_label("serve:" + req.schema + ":" + query_key);
  DecisionOptions options = options_.decide;
  options.force_naive = req.naive;
  StatusOr<Decision> d = [&]() -> StatusOr<Decision> {
    if (req.finite) {
      FrozenQuery frozen = FreezeQuery(query, &universe);
      DecisionOptions adjusted = options;
      adjusted.accessible_constants = frozen.accessible_constants;
      return DecideFiniteMonotoneAnswerability(doc->schema,
                                               frozen.boolean_q, adjusted);
    }
    return DecideQueryAnswerability(doc->schema, query, options);
  }();
  entry->RecordEngineOutcome(NowUs(), d.ok());
  if (!d.ok()) {
    return RenderServeError(req.id, serve_error::kEngineError,
                            d.status().message());
  }

  JsonObjectWriter w;
  w.AddString("verdict", AnswerabilityName(d->verdict));
  w.AddString("fragment", FragmentName(d->fragment));
  w.AddBool("complete", d->complete);
  w.AddString("procedure", d->procedure);
  if (!d->complete && d->exhausted != ChaseExhausted::kNone) {
    w.AddString("exhausted", ChaseExhaustedName(d->exhausted));
  }
  w.AddUint("chase_rounds", d->chase_rounds);
  w.AddUint("chase_facts", d->chase_facts);
  std::string obj = w.ToJson();
  body = "\"decision\":" + obj;
  cache_.Insert(key, body);
  return RenderServeOk(req.id, body + ",\"cached\":false");
}

std::string ServeServer::DoRun(const ServeRequest& req) {
  std::shared_ptr<SchemaEntry> entry = registry_.Find(req.schema);
  if (entry == nullptr) {
    return RenderServeError(req.id, serve_error::kNotFound,
                            "schema '" + req.schema + "' is not loaded");
  }
  FaultPlan faults;
  bool faulty = !req.faults.empty();
  if (faulty) {
    StatusOr<FaultPlan> parsed = ParseFaultSpec(req.faults);
    if (!parsed.ok()) {
      return RenderServeError(req.id, serve_error::kBadRequest,
                              parsed.status().message());
    }
    faults = std::move(*parsed);
  }

  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(entry->text, &universe);
  if (!doc.ok()) {
    return RenderServeError(req.id, serve_error::kEngineError,
                            doc.status().message());
  }
  auto it = doc->queries.find(req.query);
  if (it == doc->queries.end()) {
    return RenderServeError(req.id, serve_error::kUnknownQuery,
                            "schema '" + req.schema + "' has no query '" +
                                req.query + "'");
  }

  if (!entry->AllowEngineCall(NowUs())) {
    metrics_->breaker_rejects->Increment();
    return RenderServeError(req.id, serve_error::kBreakerOpen,
                            "schema breaker is open");
  }

  StatusOr<Plan> plan = ExtractPlanFromProof(doc->schema, it->second);
  if (!plan.ok()) plan = SynthesizeUniversalPlan(doc->schema, it->second);
  if (!plan.ok()) {
    entry->RecordEngineOutcome(NowUs(), false);
    return RenderServeError(req.id, serve_error::kEngineError,
                            "no plan: " + plan.status().message());
  }

  auto selector =
      MakeIdempotent(MakeSelector(SelectionPolicy::kFirstK, req.seed));
  InstanceService backend(doc->data, selector.get());
  VirtualClock clock;
  FaultInjectingService faulty_service(&backend, faults, &clock);
  PlanExecutor executor(doc->schema,
                        faulty ? static_cast<Service*>(&faulty_service)
                               : &backend,
                        &clock);
  StatusOr<ExecutionResult> out = executor.Run(*plan);
  entry->RecordEngineOutcome(NowUs(), out.ok());
  if (!out.ok()) {
    return RenderServeError(req.id, serve_error::kEngineError,
                            out.status().message());
  }

  JsonObjectWriter w;
  w.AddUint("tuples", out->table.size());
  w.AddUint("accesses", executor.stats().accesses);
  w.AddBool("partial", out->partial);
  return RenderServeOk(req.id, "\"run\":" + w.ToJson());
}

}  // namespace rbda
