// Integration tests for the rbda_serve daemon (serve/server.h): a real
// server on an ephemeral port, driven through real sockets by ServeClient.
// Covers the full robustness surface — caching across requests, bounded
// admission with explicit sheds, per-tenant caps, queue-wait deadlines,
// defensive framing (malformed / oversized / partial), half-close, and
// graceful drain with zero unanswered in-flight requests.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_reader.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace rbda {
namespace {

constexpr char kDocument[] =
    "relation R(a,b)\n"
    "relation T(a)\n"
    "method mr on R inputs(0) limit 10\n"
    "method mt on T inputs()\n"
    "tgd T(x) -> R(x,x)\n"
    "query Q0() :- R(\"c\", y)\n"
    "fact T(\"c\")\n";

std::string JsonEscapeDoc(std::string_view doc) {
  std::string out;
  for (char c : doc) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string LoadLine(const std::string& name, std::string_view doc) {
  return "{\"op\":\"load-schema\",\"name\":\"" + name +
         "\",\"document\":\"" + JsonEscapeDoc(doc) + "\"}";
}

/// Error code of a response line; "" for ok responses, "<unparseable>"
/// when the daemon emitted something that is not a response object.
std::string ErrorCode(const std::string& line) {
  StatusOr<JsonValue> v = ParseJson(line);
  if (!v.ok() || !v->is_object()) return "<unparseable>";
  const JsonValue* ok = v->Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->AsBool()) return "";
  const JsonValue* error = v->Find("error");
  return error != nullptr && error->is_string() ? error->AsString()
                                                : "<unparseable>";
}

/// A live server on its own thread. The destructor asserts the drain was
/// clean: Serve() must return Ok with every admitted request answered.
class TestServer {
 public:
  explicit TestServer(const ServerOptions& options)
      : TestServer(std::make_unique<ServeServer>(options)) {}

  explicit TestServer(std::unique_ptr<ServeServer> server)
      : server_(std::move(server)) {
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  ~TestServer() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  ServeServer& server() { return *server_; }
  uint16_t port() const { return server_->port(); }

  std::unique_ptr<ServeClient> Connect(uint64_t timeout_ms = 5000) {
    StatusOr<std::unique_ptr<ServeClient>> client =
        ServeClient::Connect("127.0.0.1", server_->port(), timeout_ms);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  Status Drain() {
    server_->RequestDrain();
    thread_.join();
    return serve_status_;
  }

 private:
  std::unique_ptr<ServeServer> server_;
  std::thread thread_;
  Status serve_status_;
};

TEST(ServeTest, HealthAndMetricsAnswerInline) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);

  StatusOr<std::string> health = client->Call("{\"op\":\"health\"}");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(ErrorCode(*health), "");
  EXPECT_NE(health->find("\"schemas\""), std::string::npos);

  StatusOr<std::string> metrics =
      client->Call("{\"op\":\"metrics\",\"id\":\"m1\"}");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(ErrorCode(*metrics), "");
  EXPECT_NE(metrics->find("\"id\":\"m1\""), std::string::npos);
  EXPECT_NE(metrics->find("serve.requests"), std::string::npos);
}

TEST(ServeTest, DecideCachesAcrossRequestsAndReloadInvalidates) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);

  StatusOr<std::string> loaded = client->Call(LoadLine("s1", kDocument));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(ErrorCode(*loaded), "") << *loaded;
  EXPECT_NE(loaded->find("\"epoch\":1"), std::string::npos);

  const std::string decide =
      "{\"op\":\"decide\",\"schema\":\"s1\",\"query\":\"Q0\"}";
  StatusOr<std::string> cold = client->Call(decide);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(ErrorCode(*cold), "") << *cold;
  EXPECT_NE(cold->find("\"cached\":false"), std::string::npos) << *cold;
  EXPECT_NE(cold->find("\"verdict\""), std::string::npos);

  StatusOr<std::string> warm = client->Call(decide);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("\"cached\":true"), std::string::npos) << *warm;

  // Reload bumps the epoch; the old cache entries must not serve the new
  // document.
  StatusOr<std::string> reloaded = client->Call(LoadLine("s1", kDocument));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded->find("\"epoch\":2"), std::string::npos);
  StatusOr<std::string> cold_again = client->Call(decide);
  ASSERT_TRUE(cold_again.ok());
  EXPECT_NE(cold_again->find("\"cached\":false"), std::string::npos);
}

TEST(ServeTest, AdHocQueryTextAndErrorTaxonomy) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());

  StatusOr<std::string> text = client->Call(
      "{\"op\":\"decide\",\"schema\":\"s1\","
      "\"query_text\":\"QX() :- R(\\\"c\\\", y)\"}");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(ErrorCode(*text), "") << *text;

  EXPECT_EQ(ErrorCode(*client->Call(
                "{\"op\":\"decide\",\"schema\":\"nope\",\"query\":\"Q0\"}")),
            serve_error::kNotFound);
  EXPECT_EQ(ErrorCode(*client->Call(
                "{\"op\":\"decide\",\"schema\":\"s1\",\"query\":\"Qz\"}")),
            serve_error::kUnknownQuery);
  EXPECT_EQ(ErrorCode(*client->Call(
                "{\"op\":\"decide\",\"schema\":\"s1\","
                "\"query_text\":\"this is no query\"}")),
            serve_error::kBadRequest);
  EXPECT_EQ(ErrorCode(*client->Call(
                "{\"op\":\"load-schema\",\"name\":\"bad\","
                "\"document\":\"relation R(\"}")),
            serve_error::kBadRequest);
}

TEST(ServeTest, HostileNumberInALoadedDocumentGetsAnErrorReply) {
  // A bound past 2^64 once threw std::out_of_range out of the parser on a
  // worker: the request went unanswered, in_flight stayed at 1, and a
  // drain waited for it. A short drain timeout keeps such a server from
  // hanging the test.
  ServerOptions options;
  options.drain_timeout_ms = 2000;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  StatusOr<std::string> load = client->Call(
      LoadLine("huge", "relation R(a, b)\n"
                       "method m on R inputs(0) "
                       "limit 99999999999999999999999\n"),
      5000);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(ErrorCode(*load), serve_error::kBadRequest) << *load;
  EXPECT_NE(load->find("out of range"), std::string::npos) << *load;

  // The worker releases its admission slot just after enqueueing the
  // reply, so in_flight may read 1 for a moment.
  std::string health;
  for (int i = 0; i < 200; ++i) {
    StatusOr<std::string> h = client->Call("{\"op\":\"health\"}");
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    health = *h;
    if (health.find("\"in_flight\":0") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(health.find("\"in_flight\":0"), std::string::npos) << health;
}

// A server whose handler throws for the schema named "boom".
class ThrowingServer : public ServeServer {
 public:
  using ServeServer::ServeServer;

 protected:
  std::string Dispatch(const ServeRequest& req) override {
    if (req.op == ServeOp::kLoadSchema && req.name == "boom") {
      throw std::runtime_error("boom handler");
    }
    return ServeServer::Dispatch(req);
  }
};

TEST(ServeTest, ThrowingHandlerGetsAnErrorReplyAndFreesItsSlot) {
  // The task pool only records what a task throws: without the catch in
  // the worker, the client got no reply, in_flight stayed at 1, and the
  // drain waited out its timeout.
  ServerOptions options;
  options.drain_timeout_ms = 3000;
  TestServer ts(std::make_unique<ThrowingServer>(options));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  StatusOr<std::string> load =
      client->Call(LoadLine("boom", "relation R(a)\n"), 2000);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(ErrorCode(*load), serve_error::kEngineError) << *load;
  EXPECT_NE(load->find("boom handler"), std::string::npos) << *load;

  // Other requests still run, through the same worker pool.
  StatusOr<std::string> fine = client->Call(LoadLine("s1", kDocument));
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(ErrorCode(*fine), "") << *fine;

  // The worker releases its admission slot just after enqueueing the
  // reply, so in_flight may read 1 for a moment.
  std::string health;
  for (int i = 0; i < 200; ++i) {
    StatusOr<std::string> h = client->Call("{\"op\":\"health\"}");
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    health = *h;
    if (health.find("\"in_flight\":0") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(health.find("\"in_flight\":0"), std::string::npos) << health;

  const auto drain_began = std::chrono::steady_clock::now();
  Status drained = ts.Drain();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - drain_began,
            std::chrono::milliseconds(options.drain_timeout_ms));
}

TEST(ServeTest, RunExecutesPlanWithFaults) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());

  StatusOr<std::string> run = client->Call(
      "{\"op\":\"run\",\"schema\":\"s1\",\"query\":\"Q0\",\"seed\":5}");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(ErrorCode(*run), "") << *run;
  EXPECT_NE(run->find("\"run\""), std::string::npos);

  EXPECT_EQ(ErrorCode(*client->Call(
                "{\"op\":\"run\",\"schema\":\"s1\",\"query\":\"Q0\","
                "\"faults\":\"transient=nan\"}")),
            serve_error::kBadRequest);
}

TEST(ServeTest, MalformedLinesAnsweredAndConnectionSurvives) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);

  const char* garbage[] = {
      "not json",
      "{\"op\":\"health\"",       // truncated object
      "{\"op\":\"health\",}",     // trailing comma
      "{\"op\":17}",              // mistyped op
      "{\"op\":\"decide\"}",      // missing required fields
      "\x01\x02\x03",             // control bytes
  };
  for (const char* line : garbage) {
    StatusOr<std::string> response = client->Call(line);
    ASSERT_TRUE(response.ok()) << "no response for: " << line;
    EXPECT_EQ(ErrorCode(*response), serve_error::kBadRequest) << *response;
  }
  // The connection survived all of it.
  StatusOr<std::string> health = client->Call("{\"op\":\"health\"}");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(ErrorCode(*health), "");
}

TEST(ServeTest, OversizedFrameAnsweredThenClosed) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);

  std::string huge(4096, 'x');  // no newline: an unbounded frame attempt
  ASSERT_TRUE(client->SendRaw(huge).ok());
  StatusOr<std::string> response = client->ReadLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(ErrorCode(*response), serve_error::kFrameTooLarge);
  // ... after which the server closes: EOF, not a hang.
  EXPECT_EQ(client->ReadLine(2000).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServeTest, PartialFrameThenHalfCloseIsClosedQuietly) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendRaw("{\"op\":\"hea").ok());
  client->CloseWrite();
  // No frame ever completes; the server must close without a response.
  EXPECT_EQ(client->ReadLine(2000).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServeTest, HalfCloseStillDeliversPipelinedResponses) {
  TestServer ts((ServerOptions()));
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  StatusOr<std::string> loaded = client->Call(LoadLine("s1", kDocument));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(ErrorCode(*loaded), "");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        client
            ->Send("{\"op\":\"decide\",\"schema\":\"s1\",\"query\":\"Q0\","
                   "\"id\":\"p" +
                   std::to_string(i) + "\"}")
            .ok());
  }
  client->CloseWrite();  // EOF arrives while the decides may still be queued
  for (int i = 0; i < 4; ++i) {
    StatusOr<std::string> response = client->ReadLine();
    ASSERT_TRUE(response.ok()) << "response " << i << " lost: "
                               << response.status().ToString();
    EXPECT_EQ(ErrorCode(*response), "") << *response;
  }
  EXPECT_EQ(client->ReadLine(2000).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServeTest, QueueFullShedsWithExplicitOverloaded) {
  ServerOptions options;
  options.jobs = 1;
  options.admission.max_queue = 1;
  options.enable_debug_sleep = true;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());

  // Pipeline 8 slow decides at a 1-deep queue on 1 worker: most must be
  // shed, every single one must be answered.
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        client
            ->Send("{\"op\":\"decide\",\"schema\":\"s1\",\"query\":\"Q0\","
                   "\"debug_sleep_us\":30000,\"tenant\":\"t" +
                   std::to_string(i) + "\"}")
            .ok());
  }
  int ok = 0, overloaded = 0, other = 0;
  for (int i = 0; i < kRequests; ++i) {
    StatusOr<std::string> response = client->ReadLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    std::string code = ErrorCode(*response);
    if (code.empty()) {
      ++ok;
    } else if (code == serve_error::kOverloaded) {
      ++overloaded;
    } else {
      ++other;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(ok + overloaded, kRequests);
}

TEST(ServeTest, TenantCapRejectsOnlyTheGreedyTenant) {
  ServerOptions options;
  options.jobs = 2;
  options.admission.per_tenant_inflight = 1;
  options.enable_debug_sleep = true;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());

  // Two slow requests from tenant "greedy": the second must bounce. One
  // from "modest" sails through.
  for (const char* tenant : {"greedy", "greedy", "modest"}) {
    ASSERT_TRUE(
        client
            ->Send(std::string("{\"op\":\"decide\",\"schema\":\"s1\","
                               "\"query\":\"Q0\",\"debug_sleep_us\":30000,"
                               "\"tenant\":\"") +
                   tenant + "\"}")
            .ok());
  }
  int ok = 0, tenant_rejects = 0;
  for (int i = 0; i < 3; ++i) {
    StatusOr<std::string> response = client->ReadLine();
    ASSERT_TRUE(response.ok());
    std::string code = ErrorCode(*response);
    if (code.empty()) ++ok;
    if (code == serve_error::kTenantOverLimit) ++tenant_rejects;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(tenant_rejects, 1);
}

TEST(ServeTest, DeadlineExpiredInQueueSkipsTheEngine) {
  ServerOptions options;
  options.jobs = 1;
  options.enable_debug_sleep = true;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());

  // First request holds the only worker for 80ms; once it is running,
  // the second's 20ms budget expires while it waits in the queue. (The
  // pause matters: the pool pops LIFO, so the requests must not sit in
  // the queue together.)
  ASSERT_TRUE(client
                  ->Send("{\"op\":\"decide\",\"schema\":\"s1\","
                         "\"query\":\"Q0\",\"debug_sleep_us\":80000}")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client
                  ->Send("{\"op\":\"decide\",\"schema\":\"s1\","
                         "\"query\":\"Q0\",\"deadline_ms\":20,"
                         "\"id\":\"late\"}")
                  .ok());
  StatusOr<std::string> first = client->ReadLine();
  StatusOr<std::string> second = client->ReadLine();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ErrorCode(*first), "");
  EXPECT_EQ(ErrorCode(*second), serve_error::kDeadlineInQueue) << *second;
  EXPECT_NE(second->find("\"id\":\"late\""), std::string::npos);
}

TEST(ServeTest, DrainAnswersEveryInFlightRequestAndReturnsOk) {
  ServerOptions options;
  options.jobs = 1;
  options.enable_debug_sleep = true;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());

  // A slow request is mid-flight when the drain begins.
  ASSERT_TRUE(client
                  ->Send("{\"op\":\"decide\",\"schema\":\"s1\","
                         "\"query\":\"Q0\",\"debug_sleep_us\":100000,"
                         "\"id\":\"inflight\"}")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ts.server().RequestDrain();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // New work during the drain is refused explicitly...
  ASSERT_TRUE(client
                  ->Send("{\"op\":\"decide\",\"schema\":\"s1\","
                         "\"query\":\"Q0\",\"id\":\"rejected\"}")
                  .ok());
  StatusOr<std::string> refused = client->ReadLine();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(ErrorCode(*refused), serve_error::kShuttingDown) << *refused;

  // ... and the in-flight request is still answered before Serve returns.
  StatusOr<std::string> answered = client->ReadLine();
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(ErrorCode(*answered), "") << *answered;
  EXPECT_NE(answered->find("\"id\":\"inflight\""), std::string::npos);

  EXPECT_TRUE(ts.Drain().ok());
  // The drain closed the connection once everything was flushed.
  EXPECT_EQ(client->ReadLine(2000).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServeTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  // Say nothing; the server must hang up on us, not leak the socket.
  EXPECT_EQ(client->ReadLine(5000).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServeTest, NewConnectionsRefusedWhileDraining) {
  ServerOptions options;
  options.jobs = 1;
  options.enable_debug_sleep = true;
  TestServer ts(options);
  auto client = ts.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Call(LoadLine("s1", kDocument)).ok());
  ASSERT_TRUE(client
                  ->Send("{\"op\":\"decide\",\"schema\":\"s1\","
                         "\"query\":\"Q0\",\"debug_sleep_us\":100000}")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ts.server().RequestDrain();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // The listener is closed: a fresh connect must fail or be torn down
  // immediately rather than being silently accepted and ignored.
  StatusOr<std::unique_ptr<ServeClient>> late =
      ServeClient::Connect("127.0.0.1", ts.port(), 1000);
  if (late.ok()) {
    EXPECT_FALSE((*late)->Call("{\"op\":\"health\"}", 1000).ok());
  }

  StatusOr<std::string> answered = client->ReadLine();
  ASSERT_TRUE(answered.ok());
  EXPECT_EQ(ErrorCode(*answered), "");
  EXPECT_TRUE(ts.Drain().ok());
}

}  // namespace
}  // namespace rbda
