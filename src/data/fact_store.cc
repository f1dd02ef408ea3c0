#include "data/fact_store.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace rbda {

namespace {

// splitmix64-style word mixer; the dedup table's quality hinges on this
// spreading near-identical rows (chase rows differ in one null id).
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

RelationStore::RelationStore(const RelationStore& other)
    : relation_(other.relation_),
      arity_(other.arity_),
      num_rows_(other.num_rows_),
      max_rows_(other.max_rows_),
      slots_(other.slots_),
      postings_(other.postings_),
      num_postings_(other.num_postings_),
      long_lists_(other.long_lists_) {
  blocks_.reserve(other.blocks_.size());
  const size_t words = static_cast<size_t>(arity_) * kRowsPerBlock;
  for (const auto& block : other.blocks_) {
    auto copy = std::make_unique<Term[]>(words);
    std::memcpy(copy.get(), block.get(), words * sizeof(Term));
    blocks_.push_back(std::move(copy));
  }
}

RelationStore& RelationStore::operator=(const RelationStore& other) {
  if (this != &other) {
    RelationStore copy(other);
    *this = std::move(copy);
  }
  return *this;
}

uint64_t RelationStore::HashRow(const Term* row) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ arity_;
  for (uint32_t i = 0; i < arity_; ++i) {
    h = Mix(h ^ row[i].raw());
  }
  return h;
}

bool RelationStore::RowEquals(uint64_t id, const Term* row) const {
  const Term* stored = Row(id);
  for (uint32_t i = 0; i < arity_; ++i) {
    if (stored[i] != row[i]) return false;
  }
  return true;
}

size_t RelationStore::ProbeSlot(const Term* row) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(HashRow(row)) & mask;
  while (slots_[slot] != kEmptySlot && !RowEquals(slots_[slot], row)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void RelationStore::GrowTable() {
  const size_t new_size = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  slots_.assign(new_size, kEmptySlot);
  const size_t mask = new_size - 1;
  for (uint64_t id = 0; id < num_rows_; ++id) {
    size_t slot = static_cast<size_t>(HashRow(Row(id))) & mask;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(id);
  }
}

Status RelationStore::Insert(const Term* row, uint32_t* id, bool* inserted) {
  if (slots_.empty() ||
      num_rows_ * 100 >= slots_.size() * kMaxLoadPercent) {
    GrowTable();
  }
  size_t slot = ProbeSlot(row);
  if (slots_[slot] != kEmptySlot) {
    *id = slots_[slot];
    *inserted = false;
    return Status::Ok();
  }
  if (num_rows_ >= max_rows_) {
    return Status::ResourceExhausted(
        "relation store for relation id " + std::to_string(relation_) +
        " is full: " + std::to_string(num_rows_) +
        " rows exhaust the 32-bit row-id space (limit " +
        std::to_string(max_rows_) + ")");
  }
  // Append the row to the arena.
  const uint64_t new_id = num_rows_;
  if ((new_id >> kRowsPerBlockLog2) >= blocks_.size()) {
    blocks_.push_back(
        std::make_unique<Term[]>(static_cast<size_t>(arity_) *
                                 kRowsPerBlock));
  }
  Term* dest = blocks_[new_id >> kRowsPerBlockLog2].get() +
               (new_id & kRowsPerBlockMask) * arity_;
  std::copy(row, row + arity_, dest);
  ++num_rows_;
  slots_[slot] = static_cast<uint32_t>(new_id);
  for (uint32_t p = 0; p < arity_; ++p) {
    AddPosting(p, row[p].raw(), static_cast<uint32_t>(new_id));
  }
  *id = static_cast<uint32_t>(new_id);
  *inserted = true;
  return Status::Ok();
}

bool RelationStore::Find(const Term* row, uint32_t* id) const {
  if (slots_.empty()) return false;
  size_t slot = ProbeSlot(row);
  if (slots_[slot] == kEmptySlot) return false;
  *id = slots_[slot];
  return true;
}

size_t RelationStore::ProbePosting(uint32_t position, uint64_t term) const {
  const size_t mask = postings_.size() - 1;
  size_t i = static_cast<size_t>(Mix(term ^ (uint64_t{position} << 40))) &
             mask;
  while (postings_[i].size != 0 &&
         (postings_[i].term != term || postings_[i].position != position)) {
    i = (i + 1) & mask;
  }
  return i;
}

void RelationStore::GrowPostings() {
  const size_t new_size = postings_.empty()
                              ? std::bit_ceil(size_t{2} * arity_)
                              : postings_.size() * 2;
  const std::vector<PostingEntry> old =
      std::exchange(postings_, std::vector<PostingEntry>(new_size));
  for (const PostingEntry& entry : old) {
    if (entry.size != 0) {
      postings_[ProbePosting(entry.position, entry.term)] = entry;
    }
  }
}

void RelationStore::AddPosting(uint32_t position, uint64_t term,
                               uint32_t row) {
  if ((num_postings_ + 1) * 100 > postings_.size() * kMaxLoadPercent) {
    GrowPostings();
  }
  PostingEntry& entry = postings_[ProbePosting(position, term)];
  if (entry.size == 0) {
    entry = PostingEntry{term, position, 1, row};
    ++num_postings_;
    return;
  }
  if (entry.size == 1) {
    const uint32_t first = entry.row_or_list;
    entry.row_or_list = static_cast<uint32_t>(long_lists_.size());
    long_lists_.push_back({first, row});
  } else {
    long_lists_[entry.row_or_list].push_back(row);
  }
  ++entry.size;
}

std::span<const uint32_t> RelationStore::Postings(uint32_t position,
                                                  Term term) const {
  if (postings_.empty()) return {};
  const PostingEntry& entry = postings_[ProbePosting(position, term.raw())];
  if (entry.size <= 1) return {&entry.row_or_list, entry.size};
  return long_lists_[entry.row_or_list];
}

size_t RelationStore::MemoryBytes() const {
  size_t bytes = blocks_.size() * static_cast<size_t>(arity_) *
                 kRowsPerBlock * sizeof(Term);
  bytes += slots_.size() * sizeof(uint32_t);
  bytes += postings_.size() * sizeof(PostingEntry);
  bytes += long_lists_.capacity() * sizeof(std::vector<uint32_t>);
  for (const std::vector<uint32_t>& ids : long_lists_) {
    bytes += ids.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace rbda
