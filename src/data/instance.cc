#include "data/instance.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "base/str_util.h"

namespace rbda {

RelationStore* Instance::StoreFor(RelationId relation, uint32_t arity) {
  auto it = stores_.find(relation);
  if (it == stores_.end()) {
    it = stores_
             .emplace(relation,
                      RelationStore(relation, arity, max_rows_per_relation_))
             .first;
    relation_order_.push_back(relation);
  }
  return &it->second;
}

const RelationStore* Instance::FindStore(RelationId relation) const {
  auto it = stores_.find(relation);
  return it == stores_.end() ? nullptr : &it->second;
}

Status Instance::TryAddRow(RelationId relation, std::span<const Term> row,
                           bool* inserted) {
  *inserted = false;
  RelationStore* store =
      StoreFor(relation, static_cast<uint32_t>(row.size()));
  if (store->arity() != row.size()) {
    return Status::InvalidArgument(
        "arity mismatch for relation id " + std::to_string(relation) +
        ": stored rows have arity " + std::to_string(store->arity()) +
        ", got " + std::to_string(row.size()));
  }
  uint32_t id = 0;
  RBDA_RETURN_IF_ERROR(store->Insert(row.data(), &id, inserted));
  if (*inserted) {
    ++total_rows_;
    ++generation_;
  }
  return Status::Ok();
}

bool Instance::AddRowChecked(RelationId relation, const Term* row,
                             uint32_t arity) {
  bool inserted = false;
  Status status = TryAddRow(relation, {row, arity}, &inserted);
  if (!status.ok()) {
    // Loud, defined failure — the silent-truncation alternative corrupts
    // the instance. Callers that want to survive this use TryAddRow.
    std::fprintf(stderr, "Instance::AddFact failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return inserted;
}

bool Instance::ContainsRow(RelationId relation,
                           std::span<const Term> row) const {
  const RelationStore* store = FindStore(relation);
  if (store == nullptr || store->arity() != row.size()) return false;
  uint32_t id = 0;
  return store->Find(row.data(), &id);
}

Instance::DeltaMark Instance::Mark() const {
  DeltaMark mark;
  mark.rebuilds = rebuilds_;
  mark.generation = generation_;
  mark.sizes.reserve(stores_.size());
  for (const auto& [rel, store] : stores_) {
    mark.sizes.emplace_back(rel, store.size());
  }
  std::sort(mark.sizes.begin(), mark.sizes.end());
  return mark;
}

uint32_t Instance::DeltaBegin(const DeltaMark& mark,
                              RelationId relation) const {
  auto it = std::ranges::lower_bound(mark.sizes, relation, {},
                                     &std::pair<RelationId, uint64_t>::first);
  return it == mark.sizes.end() || it->first != relation
             ? 0
             : static_cast<uint32_t>(it->second);
}

FactRange Instance::FactsOf(RelationId relation) const {
  return FactRange(FindStore(relation));
}

std::vector<RelationId> Instance::PopulatedRelations() const {
  std::vector<RelationId> out;
  for (const auto& [rel, store] : stores_) {
    if (store.size() > 0) out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const uint32_t> Instance::FactsWith(RelationId relation,
                                              uint32_t position,
                                              Term term) const {
  return FactsOf(relation).Postings(position, term);
}

TermSet Instance::ActiveDomain() const {
  TermSet domain;
  ForEachFact([&](FactRef f) {
    for (Term t : f.args()) domain.insert(t);
  });
  return domain;
}

void Instance::UnionWith(const Instance& other) {
  other.ForEachFact([&](FactRef f) { AddFact(f); });
}

bool Instance::IsSubinstanceOf(const Instance& other) const {
  if (NumFacts() > other.NumFacts()) return false;
  return ForEachFactUntil([&](FactRef f) {
    return other.ContainsRow(f.relation(), f.args());
  });
}

void Instance::ReplaceTerm(Term from, Term to) {
  if (from == to) return;
  std::unordered_map<Term, Term, TermHash> mapping;
  mapping.emplace(from, to);
  ReplaceTerms(mapping);
}

void Instance::ReplaceTerms(
    const std::unordered_map<Term, Term, TermHash>& mapping) {
  if (mapping.empty()) return;
  Instance rewritten;
  rewritten.max_rows_per_relation_ = max_rows_per_relation_;
  // Remap arena-to-arena through a scratch row: per-relation row counts
  // can only shrink (duplicates merge), so the checked row-id guard that
  // admitted this instance admits the rewrite.
  std::vector<Term> scratch;
  for (RelationId rel : relation_order_) {
    const RelationStore& store = stores_.at(rel);
    const uint32_t arity = store.arity();
    scratch.resize(arity);
    for (uint64_t i = 0; i < store.size(); ++i) {
      const Term* row = store.Row(i);
      for (uint32_t p = 0; p < arity; ++p) {
        auto it = mapping.find(row[p]);
        scratch[p] = it == mapping.end() ? row[p] : it->second;
      }
      rewritten.AddRow(rel, scratch);
    }
  }
  // Keep the growth counters monotone across the rebuild: the structural
  // change invalidates outstanding DeltaMarks via rebuilds_, and
  // generation_ must never repeat a value for a different state.
  rewritten.generation_ = generation_ + 1;
  rewritten.rebuilds_ = rebuilds_ + 1;
  *this = std::move(rewritten);
}

Instance Instance::RestrictTo(
    const std::unordered_set<RelationId>& relations) const {
  Instance out;
  out.max_rows_per_relation_ = max_rows_per_relation_;
  for (RelationId rel : relation_order_) {
    if (relations.count(rel) == 0) continue;
    const RelationStore& store = stores_.at(rel);
    if (store.size() == 0) continue;
    out.stores_.emplace(rel, store);  // arena copied whole, order kept
    out.relation_order_.push_back(rel);
    out.total_rows_ += store.size();
  }
  out.generation_ = out.total_rows_;
  return out;
}

size_t Instance::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [rel, store] : stores_) bytes += store.MemoryBytes();
  return bytes;
}

void Instance::SetMaxRowsPerRelationForTesting(uint64_t max_rows) {
  max_rows_per_relation_ = std::min(max_rows, RelationStore::kMaxRows);
  for (auto& [rel, store] : stores_) {
    store.set_max_rows(max_rows_per_relation_);
  }
}

std::string Instance::ToString(const Universe& universe) const {
  std::vector<Fact> sorted;
  sorted.reserve(NumFacts());
  ForEachFact([&](FactRef f) { sorted.push_back(Fact(f)); });
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Fact& f : sorted) {
    out += FactToString(f, universe);
    out += "\n";
  }
  return out;
}

std::string FactToString(const Fact& fact, const Universe& universe) {
  std::vector<std::string> args;
  args.reserve(fact.args.size());
  for (const Term& t : fact.args) args.push_back(universe.TermName(t));
  return universe.RelationName(fact.relation) + "(" + Join(args, ", ") + ")";
}

}  // namespace rbda
