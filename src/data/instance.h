// Facts and instances.
//
// An instance is a finite set of facts R(t1..tn). Instances are the common
// currency of the whole library: query evaluation, the chase, plan
// execution, and the simulated services all operate on Instance.
//
// Storage is packed and columnar: each relation's facts live in a
// RelationStore — fixed-arity rows of 64-bit Term words in block-allocated
// arenas, deduplicated by an open-addressed hash over the row words, with
// per-relation column postings driving the positional index
// (relation, position, term) -> row ids that homomorphism search and chase
// trigger enumeration probe (one open-addressed table per relation, see
// data/fact_store.h; a posting span lives until the relation's next
// insert). A fact is stored once; FactsOf hands out borrowed row views
// (FactRef) instead of copies.
//
// For semi-naive (delta-driven) evaluation the instance also tracks how it
// grows: per-relation row arenas are append-only, so a DeltaMark — a
// snapshot of the per-relation sizes plus the structural-rebuild counter —
// identifies exactly the facts added since the snapshot. ReplaceTerm (EGD
// merges) rebuilds the arenas and bumps the rebuild counter, which
// invalidates every outstanding mark; callers must fall back to full
// evaluation after a rebuild (see MarkValid).
//
// Row ids are 32-bit and checked: growth past the id space surfaces as a
// Status from TryAddFact/TryAddRow (the plain AddFact aborts loudly), never
// as silent truncation.
#ifndef RBDA_DATA_INSTANCE_H_
#define RBDA_DATA_INSTANCE_H_

#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "data/fact_store.h"
#include "data/term.h"
#include "data/universe.h"

namespace rbda {

/// An owned fact (or, structurally, an atom whose arguments may be
/// variables — see logic/homomorphism.h). The instance does not store
/// Facts; it packs their terms into row arenas. Fact remains the owned
/// currency for atoms, service results, and call sites that outlive the
/// instance they read from.
struct Fact {
  RelationId relation = 0;
  std::vector<Term> args;

  Fact() = default;
  Fact(RelationId r, std::vector<Term> a) : relation(r), args(std::move(a)) {}
  /// Materializes a borrowed row view into an owned Fact.
  explicit Fact(const FactRef& ref)
      : relation(ref.relation()),
        args(ref.args().begin(), ref.args().end()) {}

  bool operator==(const Fact& o) const {
    return relation == o.relation && args == o.args;
  }
  bool operator<(const Fact& o) const {
    if (relation != o.relation) return relation < o.relation;
    return args < o.args;
  }
};

struct FactHash {
  size_t operator()(const Fact& f) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ f.relation;
    for (const Term& t : f.args) {
      h ^= TermHash()(t) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

using TermSet = std::unordered_set<Term, TermHash>;

class Instance {
 public:
  /// A point-in-time snapshot of the instance's growth state, for
  /// semi-naive delta evaluation: the facts of `relation` appended after
  /// the mark are exactly FactsOf(relation)[DeltaBegin(mark, relation)..].
  /// A mark is invalidated by structural rebuilds (ReplaceTerm); check
  /// MarkValid before using DeltaBegin. Sizes are stored untruncated; the
  /// checked 32-bit row-id guard keeps every recorded size below 2^32.
  struct DeltaMark {
    uint64_t rebuilds = 0;
    uint64_t generation = 0;  // generation() at mark time; the delta holds
                              // generation() - generation facts
    // (relation, rows) of every store at mark time, sorted by relation:
    // one flat vector, which DeltaBegin binary-searches.
    std::vector<std::pair<RelationId, uint64_t>> sizes;
  };

  /// Adds a fact; returns true if it was not already present. Aborts
  /// (loudly, never silently truncating) if the relation's checked row-id
  /// space is exhausted — budget-bounded callers on the hot path use
  /// TryAddFact/TryAddRow and get a Status instead.
  bool AddFact(const Fact& fact) {
    return AddRowChecked(fact.relation, fact.args.data(),
                         static_cast<uint32_t>(fact.args.size()));
  }
  /// Rvalue overload: the packed store reads the terms in place, so a
  /// spent Fact is never copied into storage (the old representation
  /// copied it twice more).
  bool AddFact(Fact&& fact) {
    return AddRowChecked(fact.relation, fact.args.data(),
                         static_cast<uint32_t>(fact.args.size()));
  }
  bool AddFact(RelationId relation, const std::vector<Term>& args) {
    return AddRowChecked(relation, args.data(),
                         static_cast<uint32_t>(args.size()));
  }
  /// Adds a borrowed row view (possibly from another instance).
  bool AddFact(const FactRef& ref) {
    return AddRowChecked(ref.relation(), ref.args().data(), ref.arity());
  }
  /// Adds a packed row directly — the zero-materialization entry point for
  /// rebuilds and term-remapping hot paths.
  bool AddRow(RelationId relation, std::span<const Term> row) {
    return AddRowChecked(relation, row.data(),
                         static_cast<uint32_t>(row.size()));
  }

  /// Status-returning variants: kResourceExhausted once the relation's row
  /// count would pass the checked 32-bit id space (2^32 - 1 rows, or the
  /// lowered testing limit), kInvalidArgument on an arity mismatch with
  /// the relation's existing rows. On success *inserted reports whether
  /// the fact was new.
  Status TryAddFact(const Fact& fact, bool* inserted) {
    return TryAddRow(fact.relation,
                     {fact.args.data(), fact.args.size()}, inserted);
  }
  Status TryAddRow(RelationId relation, std::span<const Term> row,
                   bool* inserted);

  bool Contains(const Fact& fact) const {
    return ContainsRow(fact.relation,
                       {fact.args.data(), fact.args.size()});
  }
  bool ContainsRow(RelationId relation, std::span<const Term> row) const;

  /// All facts over `relation`, as a random-access view of packed rows
  /// (empty view if none). Row views stay valid across appends; a
  /// structural rebuild (ReplaceTerm/ReplaceTerms) invalidates them.
  FactRange FactsOf(RelationId relation) const;

  /// Relations that currently have at least one fact.
  std::vector<RelationId> PopulatedRelations() const;

  /// Indexes of facts of `relation` whose argument at `position` is
  /// `term`, ascending. The returned indexes refer to FactsOf(relation).
  /// The span stays valid until the next fact is added to `relation`
  /// (RelationStore::Postings): collect the matches before adding.
  std::span<const uint32_t> FactsWith(RelationId relation, uint32_t position,
                                      Term term) const;

  /// All terms occurring in facts.
  TermSet ActiveDomain() const;

  /// Adds every fact of `other` into this instance.
  void UnionWith(const Instance& other);

  /// True if every fact of this instance is in `other`. Short-circuits on
  /// the first missing fact.
  bool IsSubinstanceOf(const Instance& other) const;

  /// Replaces every occurrence of `from` by `to`, merging duplicate facts.
  /// Used by EGD (functional dependency) chase steps.
  void ReplaceTerm(Term from, Term to);

  /// Applies `mapping` to every term occurrence in one rebuild (terms not
  /// in the mapping are kept), merging duplicate facts. Equivalent to a
  /// sequence of ReplaceTerm calls over an idempotent mapping, but costs a
  /// single rebuild — the FD-repair worklist in the chase relies on this.
  /// Rows are remapped arena-to-arena; no per-fact heap nodes are built.
  void ReplaceTerms(const std::unordered_map<Term, Term, TermHash>& mapping);

  /// Restricts the instance to the given relations, dropping all others.
  /// Surviving relations keep their row order (arenas are copied whole).
  Instance RestrictTo(const std::unordered_set<RelationId>& relations) const;

  size_t NumFacts() const { return static_cast<size_t>(total_rows_); }
  bool Empty() const { return total_rows_ == 0; }

  /// Monotonic count of successful AddFact calls (also bumped once per
  /// structural rebuild so it never repeats a value for different states).
  uint64_t generation() const { return generation_; }

  /// Count of structural rebuilds (ReplaceTerm / ReplaceTerms calls that
  /// changed anything). A rebuild reorders the per-relation row arenas,
  /// so it invalidates every DeltaMark taken before it.
  uint64_t rebuilds() const { return rebuilds_; }

  /// Snapshots the current growth state.
  DeltaMark Mark() const;

  /// True if no structural rebuild happened since `mark` was taken, i.e.
  /// DeltaBegin ranges computed against it are meaningful.
  bool MarkValid(const DeltaMark& mark) const {
    return mark.rebuilds == rebuilds_;
  }

  /// First index into FactsOf(relation) of the facts appended since
  /// `mark`: 0 for a relation the mark does not hold (created after it).
  /// Requires MarkValid(mark). The uint32_t return cannot truncate: the
  /// checked row-id guard caps every arena below 2^32 rows.
  uint32_t DeltaBegin(const DeltaMark& mark, RelationId relation) const;

  /// Iteration over all facts, relation by relation in first-insertion
  /// order (deterministic for a given construction sequence). The callback
  /// receives borrowed FactRef row views.
  template <typename Fn>
  void ForEachFact(Fn&& fn) const {
    for (RelationId rel : relation_order_) {
      for (FactRef f : FactsOf(rel)) fn(f);
    }
  }

  /// Short-circuiting iteration: `fn` returns false to stop. Returns true
  /// if every fact was visited (i.e. no callback returned false).
  template <typename Fn>
  bool ForEachFactUntil(Fn&& fn) const {
    for (RelationId rel : relation_order_) {
      for (FactRef f : FactsOf(rel)) {
        if (!fn(f)) return false;
      }
    }
    return true;
  }

  /// Approximate heap footprint of the packed storage, in bytes.
  size_t MemoryBytes() const;

  /// Lowers the per-relation checked row-id limit so tests can exercise
  /// the overflow guard without allocating 2^32 rows. Applies to existing
  /// and future relations; values above RelationStore::kMaxRows clamp.
  void SetMaxRowsPerRelationForTesting(uint64_t max_rows);

  /// Deterministic sorted dump, one fact per line, for tests and
  /// debugging.
  std::string ToString(const Universe& universe) const;

  bool operator==(const Instance& o) const {
    return total_rows_ == o.total_rows_ && IsSubinstanceOf(o);
  }

 private:
  bool AddRowChecked(RelationId relation, const Term* row, uint32_t arity);
  RelationStore* StoreFor(RelationId relation, uint32_t arity);
  const RelationStore* FindStore(RelationId relation) const;

  // References into the map are stable across rehash, so FactRange views
  // survive unrelated relations being added. relation_order_ records
  // first-insertion order for deterministic whole-instance iteration.
  std::unordered_map<RelationId, RelationStore> stores_;
  std::vector<RelationId> relation_order_;
  uint64_t total_rows_ = 0;
  uint64_t generation_ = 0;
  uint64_t rebuilds_ = 0;
  uint64_t max_rows_per_relation_ = RelationStore::kMaxRows;
};

/// Renders one fact, e.g. "Prof(p1, alice, 10000)".
std::string FactToString(const Fact& fact, const Universe& universe);

}  // namespace rbda

#endif  // RBDA_DATA_INSTANCE_H_
