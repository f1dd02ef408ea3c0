// Packed columnar storage for one relation's facts.
//
// A RelationStore keeps every fact of a single relation as a fixed-arity
// row of 64-bit Term words in block-allocated contiguous arenas (the vlog
// chasemgmt idiom): rows never move once written, so row pointers handed
// out to homomorphism search stay valid across appends, and a row costs
// exactly arity words — no per-fact heap node, no per-fact vector header.
//
// Layout:
//   - Arena: blocks of kRowsPerBlock rows; row i lives at
//     blocks_[i >> kRowsPerBlockLog2] + (i & kRowsPerBlockMask) * arity.
//   - Dedup: an open-addressed, linear-probed hash table of row ids over
//     the row words (no stored keys — probes compare the arena rows
//     directly), replacing the old unordered_set<Fact> and its third copy
//     of every fact.
//   - Column postings: per (position, term) lists of row ids, which drive
//     positional index lookups (Instance::FactsWith). One open-addressed,
//     linear-probed table per store keyed by (position, term); a 24-byte
//     entry holds the term, the position, the list size and either the
//     list's one row id inline or an index into a side vector of longer
//     lists. Most stores hold one row, so most lists have one id, and
//     posting a row usually allocates nothing once the table is sized.
//     Postings come back as spans: a span stays valid until the next
//     Insert into its store (the table may grow and a long list may move).
//
// Row ids are 32-bit and checked: Insert returns kResourceExhausted once
// the relation would exceed the id space (2^32 - 1 rows; UINT32_MAX is the
// empty-slot sentinel) instead of silently truncating. The limit can be
// lowered per store to make the guard testable.
#ifndef RBDA_DATA_FACT_STORE_H_
#define RBDA_DATA_FACT_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/status.h"
#include "data/term.h"
#include "data/universe.h"

namespace rbda {

class RelationStore {
 public:
  // 16-row blocks. Most stores are small: of the stores the three
  // perfbench workloads create, 57-78% hold one row and 97-99.7% fewer
  // than 16, so a 1,024-row first block zeroed up to 24 KB (arity 3) per
  // relation of every small Instance. A store past 16 rows pays one
  // allocation per 16 rows.
  static constexpr uint32_t kRowsPerBlockLog2 = 4;
  static constexpr uint32_t kRowsPerBlock = 1u << kRowsPerBlockLog2;
  static constexpr uint32_t kRowsPerBlockMask = kRowsPerBlock - 1;
  /// Largest admissible row count: ids are uint32_t and UINT32_MAX is the
  /// dedup table's empty-slot sentinel.
  static constexpr uint64_t kMaxRows = 0xFFFFFFFFull;

  RelationStore(RelationId relation, uint32_t arity,
                uint64_t max_rows = kMaxRows)
      : relation_(relation), arity_(arity), max_rows_(max_rows) {}

  // Deep-copied: Instance is a value type (chase results, certificates and
  // services all copy instances), so its stores must copy too.
  RelationStore(const RelationStore& other);
  RelationStore& operator=(const RelationStore& other);
  RelationStore(RelationStore&&) = default;
  RelationStore& operator=(RelationStore&&) = default;

  RelationId relation() const { return relation_; }
  uint32_t arity() const { return arity_; }
  uint64_t size() const { return num_rows_; }

  /// Lowers (or restores) the checked row-id limit; used by tests to
  /// exercise the overflow guard without allocating 2^32 rows.
  void set_max_rows(uint64_t max_rows) { max_rows_ = max_rows; }

  /// Pointer to row `i`'s `arity()` contiguous Term words. Stable across
  /// later Inserts (blocks never move or grow).
  const Term* Row(uint64_t i) const {
    RBDA_DCHECK(i < num_rows_);
    return blocks_[i >> kRowsPerBlockLog2].get() +
           (i & kRowsPerBlockMask) * arity_;
  }

  /// Inserts the row if absent. Sets *id to the row's id (new or existing)
  /// and *inserted accordingly. Fails with kResourceExhausted — leaving
  /// the store untouched — when a new row would exceed the id space.
  Status Insert(const Term* row, uint32_t* id, bool* inserted);

  /// Looks the row up without inserting.
  bool Find(const Term* row, uint32_t* id) const;

  /// Row ids whose argument at `position` is `term` (ascending; empty if
  /// none). Valid until the next Insert into this store.
  std::span<const uint32_t> Postings(uint32_t position, Term term) const;

  /// Approximate heap footprint in bytes (arena blocks + dedup table +
  /// posting table + long posting lists), for memory accounting in benches.
  size_t MemoryBytes() const;

 private:
  uint64_t HashRow(const Term* row) const;
  bool RowEquals(uint64_t id, const Term* row) const;
  // Probes for `row`; returns the slot holding its id or the empty slot
  // where it belongs. Requires a non-empty table.
  size_t ProbeSlot(const Term* row) const;
  void GrowTable();
  // One (position, term) key of the posting table; size 0 marks a free
  // entry. A list of one row keeps it in `row_or_list`; a longer list
  // lives in long_lists_[row_or_list].
  struct PostingEntry {
    uint64_t term = 0;
    uint32_t position = 0;
    uint32_t size = 0;
    uint32_t row_or_list = 0;
  };
  static_assert(sizeof(PostingEntry) == 24);
  // Probes for (position, term); returns its entry or the free entry where
  // it belongs. Requires a non-empty table.
  size_t ProbePosting(uint32_t position, uint64_t term) const;
  void AddPosting(uint32_t position, uint64_t term, uint32_t row);
  void GrowPostings();

  RelationId relation_ = 0;
  uint32_t arity_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t max_rows_ = kMaxRows;
  std::vector<std::unique_ptr<Term[]>> blocks_;
  // Open-addressed dedup table: slots hold row ids, kEmptySlot when free.
  // Sized to a power of two, grown at kMaxLoadPercent occupancy.
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr size_t kInitialSlots = 16;
  static constexpr uint64_t kMaxLoadPercent = 70;
  std::vector<uint32_t> slots_;
  // Column postings: sized to a power of two (first 2 x arity or more),
  // grown at kMaxLoadPercent occupancy like the dedup table.
  std::vector<PostingEntry> postings_;
  size_t num_postings_ = 0;
  std::vector<std::vector<uint32_t>> long_lists_;  // ascending row ids
};

/// A borrowed view of one stored fact: the relation plus a pointer into
/// the row arena. Cheap to copy; valid while the owning Instance lives and
/// is not structurally rebuilt (ReplaceTerm/ReplaceTerms).
class FactRef {
 public:
  FactRef() = default;
  FactRef(RelationId relation, const Term* row, uint32_t arity)
      : row_(row), relation_(relation), arity_(arity) {}

  RelationId relation() const { return relation_; }
  uint32_t arity() const { return arity_; }
  Term arg(uint32_t p) const {
    RBDA_DCHECK(p < arity_);
    return row_[p];
  }
  Term operator[](uint32_t p) const { return arg(p); }
  /// The row's arguments as a contiguous span of packed Term words.
  std::span<const Term> args() const { return {row_, arity_}; }

 private:
  const Term* row_ = nullptr;
  RelationId relation_ = 0;
  uint32_t arity_ = 0;
};

/// Random-access range over one relation's rows (the result of
/// Instance::FactsOf). A value type: copies are views of the same store.
class FactRange {
 public:
  FactRange() = default;
  explicit FactRange(const RelationStore* store) : store_(store) {}

  size_t size() const { return store_ == nullptr ? 0 : store_->size(); }
  bool empty() const { return size() == 0; }
  FactRef operator[](size_t i) const {
    return FactRef(store_->relation(), store_->Row(i), store_->arity());
  }
  /// RelationStore::Postings of the viewed store (empty if none).
  std::span<const uint32_t> Postings(uint32_t position, Term term) const {
    if (store_ == nullptr) return {};
    return store_->Postings(position, term);
  }

  class iterator {
   public:
    using value_type = FactRef;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const RelationStore* store, uint64_t index)
        : store_(store), index_(index) {}
    FactRef operator*() const {
      return FactRef(store_->relation(), store_->Row(index_),
                     store_->arity());
    }
    iterator& operator++() {
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const iterator& o) const { return index_ == o.index_; }
    bool operator!=(const iterator& o) const { return index_ != o.index_; }

   private:
    const RelationStore* store_ = nullptr;
    uint64_t index_ = 0;
  };

  iterator begin() const { return iterator(store_, 0); }
  iterator end() const { return iterator(store_, size()); }

 private:
  const RelationStore* store_ = nullptr;
};

}  // namespace rbda

#endif  // RBDA_DATA_FACT_STORE_H_
