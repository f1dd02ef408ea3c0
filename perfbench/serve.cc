// serve: the user-facing daemon. An in-process ServeServer (one I/O thread,
// two workers) is reached over loopback by one client thread holding two
// connections in a closed loop: four threads in all, besides the hand-off
// reference kernel's helper, which runs only between timed windows, and all
// pinned to one vCPU (see RunServe). The seeded request sequence covers
// about a hundred loaded documents:
//   ~85% decides on a warm hot set, which hit the decision cache;
//   ~10% decides with never-seen query text, half of them variable-renamed
//        copies of hot queries, which miss the decision cache but can hit
//        the containment cache;
//   ~5%  runs of answerable queries over documents with facts;
//   one load-schema reload per thousand requests, which bumps the epoch and
//        invalidates that schema's cached decisions.
// Hits exercise framing, admission, worker hand-off, the decision cache and
// rendering; misses add the schema re-parse and the engine; runs add plan
// extraction and the executor.
#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "chase/containment.h"
#include "fuzz/fuzzer.h"
#include "harness.h"
#include "obs/json.h"
#include "parser/parser.h"
#include "parser/serializer.h"
#include "runtime/generators.h"
#include "runtime/schema_generators.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

// Many hot keys and run documents, so no single expensive or undecided
// one carries a visible share of the traffic.
constexpr size_t kDocuments = 96;
constexpr size_t kMinRunDocuments = 32;
constexpr size_t kHotTextQueries = 7;  // per document, besides its named Q
constexpr size_t kFreshTemplates = 8192;
constexpr size_t kSequence = 65536;
constexpr size_t kReloadEvery = 1000;
constexpr uint64_t kReadTimeoutMs = 30000;
constexpr size_t kHealthCalls = 2000;
constexpr size_t kWindows = 20;  // segments of a timed phase
// Runs of each reference kernel at the end of a window; their median
// scales it.
constexpr size_t kReferenceRunsPerWindow = 3;

// A query body whose variables can be renamed when rendered, so a copy
// poses the same containment problem under a never-seen text.
struct QueryTemplate {
  size_t doc = 0;
  struct Piece {
    std::string text;
    int var = -1;  // >= 0: variable number, rendered as v<var><suffix>
  };
  std::vector<Piece> pieces;

  std::string Render(const std::string& suffix) const {
    std::string out = "Qt() :- ";
    for (const Piece& p : pieces) {
      out += p.var < 0 ? p.text : "v" + std::to_string(p.var) + suffix;
    }
    return out;
  }
};

QueryTemplate MakeTemplate(size_t doc, const rbda::ConjunctiveQuery& q,
                           const rbda::Universe& universe) {
  QueryTemplate t;
  t.doc = doc;
  std::map<uint64_t, int> vars;
  for (size_t a = 0; a < q.atoms().size(); ++a) {
    const rbda::Atom& atom = q.atoms()[a];
    t.pieces.push_back({(a > 0 ? " & " : "") +
                            universe.RelationName(atom.relation) + "(",
                        -1});
    for (size_t k = 0; k < atom.args.size(); ++k) {
      if (k > 0) t.pieces.push_back({", ", -1});
      rbda::Term term = atom.args[k];
      if (term.IsVariable()) {
        auto it = vars.emplace(term.raw(), static_cast<int>(vars.size()));
        t.pieces.push_back({"", it.first->second});
      } else {
        t.pieces.push_back({"\"" + universe.TermName(term) + "\"", -1});
      }
    }
    t.pieces.push_back({")", -1});
  }
  return t;
}

enum Kind : uint8_t { kHot, kRenamed, kFresh, kRun, kReload };

struct Request {
  Kind kind;
  uint32_t doc;
  uint32_t key;  // hot key for kHot / kRenamed
};

struct HotKey {
  size_t doc;
  int text_query;       // -1: the document's named query Q
  std::string verdict;  // decided in this process while generating
};

std::string SchemaName(size_t doc) { return "s" + std::to_string(doc); }

std::string DecideLine(size_t doc, const std::string* query_text) {
  rbda::JsonObjectWriter w;
  w.AddString("op", "decide");
  w.AddString("schema", SchemaName(doc));
  if (query_text == nullptr) {
    w.AddString("query", "Q");
  } else {
    w.AddString("query_text", *query_text);
  }
  return w.ToJson();
}

// Decides what the server decides for (document, query) in this process:
// a fresh Universe, the document re-parsed, the query parsed into it.
std::string InProcessVerdict(const std::string& document,
                             const std::string* query_text,
                             const rbda::DecisionOptions& options) {
  rbda::Universe universe;
  rbda::StatusOr<rbda::ParsedDocument> doc =
      rbda::ParseDocument(document, &universe);
  if (!doc.ok()) return "error";
  rbda::ConjunctiveQuery query;
  if (query_text == nullptr) {
    auto it = doc->queries.find("Q");
    if (it == doc->queries.end()) return "error";
    query = it->second;
  } else {
    rbda::StatusOr<rbda::ConjunctiveQuery> q =
        rbda::ParseQuery(*query_text, &universe);
    if (!q.ok()) return "error";
    query = std::move(*q);
  }
  rbda::StatusOr<rbda::Decision> d =
      rbda::DecideQueryAnswerability(doc->schema, query, options);
  return d.ok() ? rbda::AnswerabilityName(d->verdict) : "error";
}

// The value of a string field in a response rendered by the server.
std::string Field(const std::string& response, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  size_t end = response.find('"', at);
  return end == std::string::npos ? "" : response.substr(at, end - at);
}

struct Inputs {
  std::vector<std::string> documents;
  std::vector<size_t> run_docs;  // documents whose Q is answerable
  std::vector<HotKey> hot;
  std::vector<QueryTemplate> hot_templates;  // by HotKey::text_query
  std::vector<QueryTemplate> fresh;
  std::vector<Request> sequence;
  std::string fingerprint;
};

// Documents come from the fuzzer's families, with random facts plus a
// planted match of Q so runs return something. The documents and queries
// are a fixed population; the workload seed draws the request sequence.
Inputs Generate(uint64_t seed, const rbda::DecisionOptions& options) {
  Inputs in;
  rbda::FuzzOptions fuzz;
  fuzz.seed = rbda::FuzzCaseSeed(kPopulationSeed, 1);
  fuzz.max_mutations = 2;
  rbda::Rng rng(rbda::FuzzCaseSeed(kPopulationSeed, 2));
  Fingerprint fp;
  std::vector<std::unique_ptr<rbda::Universe>> universes;
  std::vector<rbda::ParsedDocument> parsed;
  for (uint64_t index = 0;
       in.documents.size() < kDocuments ||
       in.run_docs.size() < kMinRunDocuments;
       ++index) {
    auto universe = std::make_unique<rbda::Universe>();
    rbda::StatusOr<rbda::ParsedDocument> doc = rbda::ParseDocument(
        rbda::GenerateCaseDocument(fuzz, index, nullptr), universe.get());
    if (!doc.ok() || doc->queries.count("Q") == 0) continue;
    rbda::StatusOr<rbda::Decision> d = rbda::DecideQueryAnswerability(
        doc->schema, doc->queries.at("Q"), options);
    bool runnable = d.ok() && d->complete &&
                    d->verdict == rbda::Answerability::kAnswerable;
    // Past the first kDocuments, only documents that can be run are kept.
    if (in.documents.size() >= kDocuments && !runnable) continue;
    rbda::Instance data = rbda::RandomInstance(
        universe.get(), doc->schema.relations(), 5, 12, &rng);
    data.UnionWith(
        rbda::GroundQuery(doc->queries.at("Q"), universe.get(), &rng));
    if (runnable) in.run_docs.push_back(in.documents.size());
    in.documents.push_back(
        rbda::SerializeDocument(doc->schema, doc->queries, data));
    fp.Add(in.documents.back());
    universes.push_back(std::move(universe));
    parsed.push_back(std::move(*doc));
  }
  auto random_template = [&](size_t doc) {
    const rbda::ServiceSchema& schema = parsed[doc].schema;
    rbda::ConjunctiveQuery q = rbda::GenerateQuery(
        schema, 1 + rng.Below(2), 2 + rng.Below(2), &rng);
    return MakeTemplate(doc, q, schema.universe());
  };
  // The hot set is the popular traffic the daemon answers: queries whose
  // verdict is definite. An undecided hot key would carry its whole share
  // of the traffic into success_ratio, whichever seed drew it; undecided
  // queries still arrive among the never-seen ones.
  auto decided = [](const std::string& verdict) {
    return verdict == "answerable" || verdict == "not-answerable";
  };
  for (size_t doc = 0; doc < in.documents.size(); ++doc) {
    std::string verdict =
        InProcessVerdict(in.documents[doc], nullptr, options);
    if (decided(verdict)) in.hot.push_back(HotKey{doc, -1, verdict});
    for (size_t tries = 0, kept = 0;
         kept < kHotTextQueries && tries < 4 * kHotTextQueries; ++tries) {
      QueryTemplate t = random_template(doc);
      std::string text = t.Render("");
      verdict = InProcessVerdict(in.documents[doc], &text, options);
      if (!decided(verdict)) continue;
      in.hot.push_back(HotKey{
          doc, static_cast<int>(in.hot_templates.size()), verdict});
      in.hot_templates.push_back(std::move(t));
      fp.Add(text);
      ++kept;
    }
  }
  for (size_t i = 0; i < kFreshTemplates; ++i) {
    in.fresh.push_back(random_template(rng.Below(in.documents.size())));
    fp.Add(in.fresh.back().Render(""));
  }
  rng = rbda::Rng(rbda::FuzzCaseSeed(seed, 3));
  in.sequence.reserve(kSequence);
  for (size_t j = 0; j < kSequence; ++j) {
    Request r{kHot, 0, 0};
    uint64_t draw = rng.Below(100);
    if (j % kReloadEvery == kReloadEvery - 1) {
      r = Request{kReload,
                  static_cast<uint32_t>(rng.Below(in.documents.size())), 0};
    } else if (draw < 85) {
      r.key = static_cast<uint32_t>(rng.Below(in.hot.size()));
    } else if (draw < 90) {
      uint32_t key = static_cast<uint32_t>(rng.Below(in.hot.size()));
      // A document's named query has no template: rename a text query.
      while (in.hot[key].text_query < 0) key = (key + 1) % in.hot.size();
      r = Request{kRenamed, 0, key};
    } else if (draw < 95) {
      r.kind = kFresh;  // templates are taken in turn when sent
    } else {
      r = Request{kRun,
                  static_cast<uint32_t>(
                      in.run_docs[rng.Below(in.run_docs.size())]),
                  0};
    }
    if (r.kind == kHot || r.kind == kRenamed) r.doc = in.hot[r.key].doc;
    fp.Add(static_cast<uint64_t>(r.kind) << 48 |
           static_cast<uint64_t>(r.doc) << 32 | r.key);
    in.sequence.push_back(r);
  }
  in.fingerprint = fp.Hex();
  return in;
}

// The daemon under test, run on its own I/O thread; stopped by graceful
// drain, which answers every admitted request first.
class Daemon {
 public:
  explicit Daemon(const rbda::ServerOptions& options)
      : server_(options) {}
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  rbda::Status Start() {
    rbda::Status started = server_.Start();
    if (!started.ok()) return started;
    thread_ = std::thread([this] { serve_status_ = server_.Serve(); });
    return rbda::Status::Ok();
  }

  rbda::Status Stop() {
    if (thread_.joinable()) {
      server_.RequestDrain();
      thread_.join();
    }
    return serve_status_;
  }

  uint16_t port() const { return server_.port(); }

 private:
  rbda::ServeServer server_;
  rbda::Status serve_status_ = rbda::Status::Ok();
  std::thread thread_;
};

// What the responses said, checked against in-process decides afterwards.
struct Observed {
  std::map<uint32_t, std::string> hot;    // hot key -> verdict
  std::map<size_t, std::string> fresh;    // template -> verdict
  uint64_t inconsistent = 0;  // a verdict differing from an earlier one
  uint64_t hit = 0, miss_after_reload = 0, miss_renamed = 0, miss_fresh = 0;
  uint64_t run = 0, reload = 0;
  uint64_t sent = 0, answered = 0, errors = 0;
  std::map<std::string, uint64_t> error_codes;

  void Remember(std::string* slot, const std::string& verdict) {
    if (slot->empty()) {
      *slot = verdict;
    } else if (*slot != verdict) {
      ++inconsistent;
    }
  }
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const Args& args) : args_(args) {
    options_.jobs = 2;
    options_.decide = ColdPathBudgets();
    // Generous deadlines: only a real stall fails a request.
    options_.default_deadline_ms = 30000;
    options_.max_deadline_ms = 60000;
  }

  int Run() {
    std::vector<double> raw_setup_s, setup_s;
    for (int k = 0; k < kSetupRepeats; ++k) {
      if (daemon_ != nullptr) {
        rbda::Status drained = Shutdown();
        if (!drained.ok()) {
          Fail("drain: " + drained.ToString());
          return 1;
        }
      }
      uint64_t start = NowNs();
      if (!Setup()) return 1;
      raw_setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      setup_s.push_back(raw_setup_s.back() *
                        reference_.Scale(kSetupReferenceRuns));
    }
    PrintSetup(raw_setup_s, setup_s);
    rbda::JsonObjectWriter inputs;
    inputs.AddString("workload", args_.workload);
    inputs.AddUint("seed", args_.seed);
    inputs.AddString("fingerprint", in_.fingerprint);
    inputs.AddUint("documents", in_.documents.size());
    inputs.AddUint("run_documents", in_.run_docs.size());
    inputs.AddUint("hot_keys", in_.hot.size());
    inputs.AddUint("fresh_templates", in_.fresh.size());
    PrintInfo("inputs", inputs.ToJson());

    if (!args_.trace) {
      PhaseResult phase = Phase(0, nullptr);
      PrintPhase(phase);
      bool correct = Gate();
      PrintResult(correct, phase.attempted, phase.failed,
                  EndToEndMetrics(phase, Median(setup_s)));
      return correct ? 0 : 1;
    }

    // Traced run: the untraced and the traced phase each send one full
    // request sequence, so both do the same work.
    PhaseResult untraced = Phase(kSequence, nullptr);
    SpanLog spans;
    RegistrySnapshot before = RegistrySnapshot::Take();
    PhaseResult traced = Phase(kSequence, &spans);
    RegistrySnapshot after = RegistrySnapshot::Take();
    HealthBurst(&spans);
    PrintPhase(traced);
    WriteSpans(args_, spans);
    bool correct = Gate();
    RegistryDelta delta(before, after);
    TracedRun run;
    run.delta = &delta;
    run.spans = &spans;
    run.untraced_ops_per_s = untraced.OpsPerS();
    run.traced_ops_per_s = traced.OpsPerS();
    run.decide_us =
        static_cast<double>(delta.Sum("answerability.decide_us"));
    run.serve_failures = traced.failed;
    PrintResult(correct, traced.attempted, traced.failed,
                PerLayerMetrics(run));
    return correct ? 0 : 1;
  }

 private:
  // Inputs, server start, schema loads and a warm pass over the hot set.
  bool Setup() {
    // Each setup starts from the same empty containment cache.
    rbda::ClearContainmentCache();
    in_ = Generate(args_.seed, options_.decide);
    daemon_ = std::make_unique<Daemon>(options_);
    rbda::Status started = daemon_->Start();
    if (!started.ok()) return Fail("start: " + started.ToString());
    for (auto& client : clients_) {
      rbda::StatusOr<std::unique_ptr<rbda::ServeClient>> c =
          rbda::ServeClient::Connect("127.0.0.1", daemon_->port(),
                                     kReadTimeoutMs);
      if (!c.ok()) return Fail("connect: " + c.status().ToString());
      client = std::move(*c);
    }
    for (size_t doc = 0; doc < in_.documents.size(); ++doc) {
      if (!WarmCall(LoadLine(doc), "\"loaded\":")) return false;
    }
    for (const HotKey& key : in_.hot) {
      if (!WarmCall(HotLine(key), "\"decision\":")) return false;
    }
    for (size_t doc : in_.run_docs) {
      if (!WarmCall(RunLine(doc), "\"run\":")) return false;
    }
    return true;
  }

  // Closes the clients and drains the server; Ok when every admitted
  // request was answered.
  rbda::Status Shutdown() {
    for (auto& client : clients_) client.reset();
    rbda::Status drained = daemon_->Stop();
    daemon_.reset();
    return drained;
  }

  bool Fail(const std::string& message) {
    std::fprintf(stderr, "perfbench serve: %s\n", message.c_str());
    return false;
  }

  bool WarmCall(const std::string& line, const char* expect) {
    rbda::StatusOr<std::string> r = clients_[0]->Call(line, kReadTimeoutMs);
    if (!r.ok()) return Fail("warm: " + r.status().ToString());
    if (r->find(expect) == std::string::npos) return Fail("warm: " + *r);
    return true;
  }

  std::string LoadLine(size_t doc) const {
    rbda::JsonObjectWriter w;
    w.AddString("op", "load-schema");
    w.AddString("name", SchemaName(doc));
    w.AddString("document", in_.documents[doc]);
    return w.ToJson();
  }

  std::string HotLine(const HotKey& key) const {
    if (key.text_query < 0) return DecideLine(key.doc, nullptr);
    std::string text = in_.hot_templates[key.text_query].Render("");
    return DecideLine(key.doc, &text);
  }

  std::string RunLine(size_t doc) const {
    rbda::JsonObjectWriter w;
    w.AddString("op", "run");
    w.AddString("schema", SchemaName(doc));
    w.AddString("query", "Q");
    return w.ToJson();
  }

  struct InFlight {
    Request request;
    size_t fresh = 0;  // template of a kFresh request
    uint64_t sent_ns = 0;
    uint64_t op_id = 0;
  };

  // Renders the request at the cursor. Renamed and fresh decides get a
  // suffix no earlier request used, so their text is never seen twice.
  std::string Render(InFlight* f) {
    const Request& r = f->request;
    switch (r.kind) {
      case kHot:
        return HotLine(in_.hot[r.key]);
      case kRenamed: {
        const HotKey& key = in_.hot[r.key];
        std::string text = in_.hot_templates[key.text_query].Render(
            "_r" + std::to_string(unique_++));
        return DecideLine(key.doc, &text);
      }
      case kFresh: {
        f->fresh = next_fresh_++ % in_.fresh.size();
        const QueryTemplate& t = in_.fresh[f->fresh];
        f->request.doc = static_cast<uint32_t>(t.doc);
        std::string text = t.Render("_f" + std::to_string(unique_++));
        return DecideLine(t.doc, &text);
      }
      case kRun:
        return RunLine(r.doc);
      case kReload:
        return LoadLine(r.doc);
    }
    return "";
  }

  // Classifies one response and checks it; returns the outcome and the
  // span name of its kind.
  Outcome Classify(const InFlight& f, const std::string& response,
                   const char** kind) {
    const Request& r = f.request;
    *kind = "serve.other";
    if (response.find("\"ok\":true") == std::string::npos) {
      ++observed_.errors;
      ++observed_.error_codes[Field(response, "error")];
      return Outcome::kFailed;
    }
    if (r.kind == kRun || r.kind == kReload) {
      bool ok = response.find(r.kind == kRun ? "\"run\":" : "\"loaded\":") !=
                std::string::npos;
      if (!ok) {
        ++observed_.errors;
        return Outcome::kFailed;
      }
      ++(r.kind == kRun ? observed_.run : observed_.reload);
      *kind = r.kind == kRun ? "serve.run" : "serve.reload";
      return Outcome::kDefinite;
    }
    std::string verdict = Field(response, "verdict");
    if (verdict.empty()) {
      ++observed_.errors;
      return Outcome::kFailed;
    }
    bool cached = response.find("\"cached\":true") != std::string::npos;
    if (r.kind == kFresh) {
      observed_.Remember(&observed_.fresh[f.fresh], verdict);
      ++observed_.miss_fresh;
    } else {
      observed_.Remember(&observed_.hot[r.key], verdict);
      if (r.kind == kRenamed) {
        ++observed_.miss_renamed;
      } else if (cached) {
        ++observed_.hit;
      } else {
        ++observed_.miss_after_reload;
      }
    }
    *kind = cached ? "serve.hit" : "serve.miss";
    return verdict == "unknown" ? Outcome::kUnknown : Outcome::kDefinite;
  }

  // Closed loop over both connections from this one thread. With
  // max_requests > 0 it sends that many requests and collects the
  // responses. Otherwise the phase is kWindows time windows of
  // seconds / kWindows, its segments: a window sends until its time is up
  // and collects the responses still in flight, then both reference
  // kernels run with no request outstanding.
  //
  // Each part of a response's latency is brought to reference speed by the
  // kernel that does its kind of work. A decision-cache hit is socket and
  // thread hand-offs, scaled by the hand-off kernel; the allocation kernel
  // does not track them (scaling hits by it widened the run-to-run spread
  // of latency_p50_us from 4% to 13% over five runs). A response the
  // server computed (a decision-cache miss, a run, a reload) pays the same
  // transport, taken as the window's median hit latency and scaled by the
  // hand-off kernel, plus engine work, the rest, scaled by the allocation
  // kernel. The window's time is scaled by the same share as its
  // latencies.
  PhaseResult Phase(size_t max_requests, SpanLog* spans) {
    PhaseResult result;
    const bool windowed = max_requests == 0;
    const uint64_t window_ns =
        static_cast<uint64_t>(args_.seconds * 1e9 / kWindows);
    size_t sent = 0;
    bool stalled = false;
    std::vector<bool> engine;  // per sample: the server ran the engine
    while (!stalled && result.segments.size() < kWindows) {
      InFlight flight[2];
      bool waiting[2] = {false, false};
      Segment segment;
      segment.begin = result.latency_ns.size();
      const uint64_t start = NowNs();
      uint64_t last = start;
      auto send = [&](int c) {
        if (windowed ? NowNs() - start >= window_ns : sent >= max_requests) {
          return;
        }
        InFlight& f = flight[c];
        f.request = in_.sequence[cursor_++ % in_.sequence.size()];
        f.op_id = op_id_++;
        std::string line = Render(&f);
        f.sent_ns = NowNs();
        rbda::Status s = clients_[c]->Send(line);
        ++observed_.sent;
        ++sent;
        if (!s.ok()) {
          ++result.attempted;
          ++result.failed;
          return;
        }
        waiting[c] = true;
      };
      send(0);
      send(1);
      while (waiting[0] || waiting[1]) {
        pollfd fds[2];
        int ids[2];
        nfds_t n = 0;
        for (int c = 0; c < 2; ++c) {
          if (!waiting[c]) continue;
          fds[n] = pollfd{clients_[c]->fd(), POLLIN, 0};
          ids[n++] = c;
        }
        int rc = poll(fds, n, static_cast<int>(kReadTimeoutMs));
        if (rc <= 0) {
          // Unanswered: every request still in flight fails.
          for (int c = 0; c < 2; ++c) {
            if (waiting[c]) ++result.attempted, ++result.failed;
            waiting[c] = false;
          }
          stalled = true;
          break;
        }
        for (nfds_t k = 0; k < n; ++k) {
          if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          int c = ids[k];
          rbda::StatusOr<std::string> line =
              clients_[c]->ReadLine(kReadTimeoutMs);
          const uint64_t now = NowNs();
          waiting[c] = false;
          ++result.attempted;
          if (!line.ok()) {
            ++result.failed;
            continue;
          }
          ++observed_.answered;
          last = now;
          const char* kind = nullptr;
          Outcome outcome = Classify(flight[c], *line, &kind);
          if (outcome == Outcome::kFailed) ++result.failed;
          if (outcome == Outcome::kDefinite) ++result.succeeded;
          result.latency_ns.push_back(now - flight[c].sent_ns);
          result.input.push_back(InputId(flight[c]));
          engine.push_back(outcome != Outcome::kFailed &&
                           std::string_view(kind) != "serve.hit");
          if (spans != nullptr) {
            spans->Record(flight[c].op_id, kind, flight[c].sent_ns, now);
          }
          send(c);
        }
      }
      result.wall_s += static_cast<double>(last - start) / 1e9;
      if (!windowed) break;
      const double engine_scale = reference_.Scale(kReferenceRunsPerWindow);
      const double handoff_scale = handoff_.Scale(kReferenceRunsPerWindow);
      std::vector<double> hit_ns;
      for (size_t i = segment.begin; i < result.latency_ns.size(); ++i) {
        if (!engine[i]) {
          hit_ns.push_back(static_cast<double>(result.latency_ns[i]));
        }
      }
      const double transport_ns = Median(std::move(hit_ns));
      double raw_ns = 0, scaled_ns = 0;
      for (size_t i = segment.begin; i < result.latency_ns.size(); ++i) {
        uint64_t& latency = result.latency_ns[i];
        const double raw = static_cast<double>(latency);
        const double transport = engine[i] ? std::min(raw, transport_ns) : raw;
        latency = static_cast<uint64_t>(transport * handoff_scale +
                                        (raw - transport) * engine_scale);
        raw_ns += raw;
        scaled_ns += static_cast<double>(latency);
      }
      segment.end = result.latency_ns.size();
      segment.raw_wall_s = static_cast<double>(last - start) / 1e9;
      segment.wall_s =
          segment.raw_wall_s * (raw_ns > 0 ? scaled_ns / raw_ns : 1);
      result.segments.push_back(std::move(segment));
    }
    return result;
  }

  // Distinct-input id of a request, for the tail report.
  uint32_t InputId(const InFlight& f) const {
    switch (f.request.kind) {
      case kHot:
      case kRenamed:
        return f.request.key;
      case kFresh:
        return static_cast<uint32_t>(in_.hot.size() + f.fresh);
      default:
        return static_cast<uint32_t>(in_.hot.size() + in_.fresh.size() +
                                     f.request.doc * 2 +
                                     (f.request.kind == kRun ? 0 : 1));
    }
  }

  // Health is answered on the I/O thread: the floor under every hit.
  void HealthBurst(SpanLog* spans) {
    for (size_t i = 0; i < kHealthCalls; ++i) {
      uint64_t start = NowNs();
      rbda::StatusOr<std::string> r =
          clients_[0]->Call("{\"op\":\"health\"}", kReadTimeoutMs);
      uint64_t end = NowNs();
      if (r.ok()) spans->Record(op_id_++, "serve.health", start, end);
    }
  }

  void PrintPhase(const PhaseResult& phase) {
    rbda::JsonObjectWriter w;
    w.AddUint("responses", phase.attempted);
    w.AddDouble("wall_s", phase.wall_s);
    // Per window: rates as measured and at reference speed, quantiles at
    // reference speed. The metrics are their medians.
    std::vector<double> raw, scaled, p50, p99;
    for (const Segment& s : phase.segments) {
      if (s.raw_wall_s <= 0 || s.wall_s <= 0) continue;
      std::vector<uint64_t> samples(phase.latency_ns.begin() + s.begin,
                                    phase.latency_ns.begin() + s.end);
      raw.push_back((s.end - s.begin) / s.raw_wall_s);
      scaled.push_back((s.end - s.begin) / s.wall_s);
      p50.push_back(QuantileUs(samples, 0.5));
      p99.push_back(QuantileUs(samples, 0.99));
    }
    w.AddRaw("window_ops_per_s", JsonList(raw));
    w.AddRaw("window_reference_ops_per_s", JsonList(scaled));
    w.AddRaw("window_reference_p50_us", JsonList(p50));
    w.AddRaw("window_reference_p99_us", JsonList(p99));
    PrintInfo("phase", w.ToJson());
    rbda::JsonObjectWriter mix;
    mix.AddUint("hit", observed_.hit);
    mix.AddUint("miss_after_reload", observed_.miss_after_reload);
    mix.AddUint("miss_renamed", observed_.miss_renamed);
    mix.AddUint("miss_fresh", observed_.miss_fresh);
    mix.AddUint("run", observed_.run);
    mix.AddUint("reload", observed_.reload);
    mix.AddUint("errors", observed_.errors);
    PrintInfo("composition", mix.ToJson());
    PrintInfo("tail", TailJson(phase));
    PrintInfo("speed", reference_.ToJson());
    PrintInfo("speed", handoff_.ToJson());
  }

  // Every decide verdict must equal an in-process decide of the same
  // document and query, every run and reload must be ok, and every request
  // sent must have been answered.
  bool Gate() {
    rbda::Status drained = Shutdown();
    uint64_t compared = 0, mismatches = 0;
    for (const auto& [key, verdict] : observed_.hot) {
      ++compared;
      if (in_.hot[key].verdict != verdict) ++mismatches;
    }
    for (const auto& [index, verdict] : observed_.fresh) {
      const QueryTemplate& t = in_.fresh[index];
      std::string text = t.Render("");
      ++compared;
      if (InProcessVerdict(in_.documents[t.doc], &text, options_.decide) !=
          verdict) {
        ++mismatches;
      }
    }
    rbda::JsonObjectWriter w;
    w.AddUint("verdicts_compared", compared);
    w.AddUint("mismatches", mismatches);
    w.AddUint("inconsistent", observed_.inconsistent);
    w.AddUint("sent", observed_.sent);
    w.AddUint("answered", observed_.answered);
    w.AddUint("errors", observed_.errors);
    w.AddBool("drained", drained.ok());
    for (const auto& [code, n] : observed_.error_codes) {
      w.AddUint("error." + code, n);
    }
    PrintInfo("gate.serve", w.ToJson());
    return mismatches == 0 && observed_.inconsistent == 0 &&
           observed_.errors == 0 && observed_.sent == observed_.answered &&
           drained.ok();
  }

  const Args args_;
  rbda::ServerOptions options_;
  Inputs in_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<rbda::ServeClient> clients_[2];
  Observed observed_;
  SpeedReference reference_{SpeedReference::Kernel::kAllocation};
  SpeedReference handoff_{SpeedReference::Kernel::kHandoff};
  size_t cursor_ = 0;
  size_t next_fresh_ = 0;
  uint64_t unique_ = 0;
  uint64_t op_id_ = 0;
};

}  // namespace

int RunServe(const Args& args) {
  // The whole workload runs on one vCPU: every thread started from here on
  // inherits this thread's affinity. Spread over the VM's four vCPUs, a
  // response waits on whichever stage's vCPU the host has descheduled: in
  // stretches when the host took time from the VM, window rates fell up to
  // fourfold while the single-threaded reference kernels slowed far less,
  // so no scaling could follow (latency_p99_us spread 109% over ten
  // 20-second runs). On one vCPU every stage and both kernels share one
  // slowdown; five 12-second runs spread 2-4% on each time metric, against
  // 6-12% unpinned over the same minutes.
  cpu_set_t one;
  CPU_ZERO(&one);
  const int cpu = sched_getcpu();
  if (cpu >= 0) CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::perror("perfbench serve: pinning to one CPU");
    return 1;
  }
  ServeWorkload workload(args);
  return workload.Run();
}

}  // namespace perfbench
