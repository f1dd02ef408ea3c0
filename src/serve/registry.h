// Schema registry and warm decision cache for rbda_serve.
//
// The registry maps names to parsed-and-validated schema documents.
// Entries hold the raw document text: decide/run workers re-parse it into
// a private Universe per request (the rbda_cli batch-mode pattern —
// Universe interning is not thread-safe, and a fresh parse gives
// deterministic term ids).
//
// Each entry carries a CircuitBreaker (runtime/resilience.h) guarding the
// engine: schemas whose decides keep failing stop consuming engine time
// until a cooldown probe succeeds. The breaker runs on a per-entry
// VirtualClock advanced to wall elapsed time under the entry mutex, so
// the deterministic breaker state machine needs no wall-clock variant.
//
// The DecisionCache memoizes rendered decide responses keyed by
// (schema name, epoch, query, option flags). A reload bumps the epoch, so
// stale verdicts die with their document version. Sharded and bounded:
// each shard evicts FIFO past its cap, so a cache-busting request stream
// costs misses, never memory.
#ifndef RBDA_SERVE_REGISTRY_H_
#define RBDA_SERVE_REGISTRY_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "runtime/resilience.h"

namespace rbda {

/// One registered schema document. `text` is immutable after
/// construction (reload replaces the whole entry); breaker state is
/// guarded by `mu`.
struct SchemaEntry {
  std::string name;
  std::string text;
  uint64_t epoch = 0;

  std::mutex mu;
  VirtualClock clock;  // advanced to wall elapsed before breaker calls
  CircuitBreaker breaker;

  SchemaEntry(std::string name_in, std::string text_in, uint64_t epoch_in,
              const CircuitBreakerOptions& breaker_options)
      : name(std::move(name_in)),
        text(std::move(text_in)),
        epoch(epoch_in),
        breaker("serve." + name, breaker_options, &clock) {}

  /// Advances the entry clock to `wall_us` (monotone µs since server
  /// start) and asks the breaker to admit an engine call.
  bool AllowEngineCall(uint64_t wall_us);
  void RecordEngineOutcome(uint64_t wall_us, bool ok);
  CircuitBreaker::State BreakerState();
};

class SchemaRegistry {
 public:
  explicit SchemaRegistry(CircuitBreakerOptions breaker_options)
      : breaker_options_(breaker_options) {}

  /// Parses `text` into a scratch Universe first; malformed documents are
  /// rejected with the parse error and do not disturb the registered
  /// entry. On success the entry is (re)placed with epoch = previous + 1.
  StatusOr<uint64_t> Load(const std::string& name, std::string text);

  /// nullptr when unknown. The returned entry stays valid after a reload
  /// replaces it (shared ownership); callers see a consistent
  /// (text, epoch) snapshot.
  std::shared_ptr<SchemaEntry> Find(const std::string& name);

  size_t size() const;

 private:
  CircuitBreakerOptions breaker_options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<SchemaEntry>> entries_;
  std::map<std::string, uint64_t> next_epoch_;
};

/// Sharded, bounded memo of rendered decide response bodies.
class DecisionCache {
 public:
  explicit DecisionCache(size_t max_entries_per_shard = 8192)
      : max_entries_per_shard_(max_entries_per_shard) {}

  bool Lookup(const std::string& key, std::string* body) const;
  void Insert(const std::string& key, const std::string& body);
  size_t size() const;

  /// The canonical cache key for a decide request.
  static std::string Key(const std::string& schema, uint64_t epoch,
                         const std::string& query, bool query_is_text,
                         bool finite, bool naive);

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::string> map;
    std::deque<std::string> fifo;  // insertion order, for eviction
  };
  static constexpr size_t kShards = 16;

  Shard& ShardFor(const std::string& key) const;

  size_t max_entries_per_shard_;
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace rbda

#endif  // RBDA_SERVE_REGISTRY_H_
