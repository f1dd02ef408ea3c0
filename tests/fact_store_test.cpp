// Targeted tests for the packed columnar fact store: arena block
// boundaries, open-addressed dedup under heavy probing, structural
// rebuilds (ReplaceTerms) over arena rows, and the checked 32-bit row-id
// guard.
#include <set>
#include <vector>

#include "data/fact_store.h"
#include "data/instance.h"
#include "data/universe.h"
#include "gtest/gtest.h"

namespace rbda {
namespace {

class FactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    s_ = *universe_.AddRelation("S", 1);
    z_ = *universe_.AddRelation("Z", 0);
  }
  Term C(uint32_t i) { return universe_.Constant("c" + std::to_string(i)); }
  Universe universe_;
  RelationId r_, s_, z_;
};

// Enough rows to span several arena blocks (RelationStore::kRowsPerBlock
// rows each); every row must stay findable, deduplicated, and indexed.
TEST_F(FactStoreTest, RowsSpanArenaBlockBoundaries) {
  constexpr uint32_t kRows = 3 * RelationStore::kRowsPerBlock + 5;
  Instance inst;
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(inst.AddFact(r_, {C(i), C(i + 1)}));
  }
  EXPECT_EQ(inst.NumFacts(), kRows);
  // Re-inserting everything is a no-op.
  for (uint32_t i = 0; i < kRows; ++i) {
    EXPECT_FALSE(inst.AddFact(r_, {C(i), C(i + 1)}));
  }
  EXPECT_EQ(inst.NumFacts(), kRows);
  // Rows right at the block seams read back correctly.
  FactRange facts = inst.FactsOf(r_);
  ASSERT_EQ(facts.size(), kRows);
  for (uint32_t i : {RelationStore::kRowsPerBlock - 1,
                     RelationStore::kRowsPerBlock,
                     2 * RelationStore::kRowsPerBlock, kRows - 1}) {
    EXPECT_EQ(facts[i].arg(0), C(i));
    EXPECT_EQ(facts[i].arg(1), C(i + 1));
  }
  // The positional index agrees with a brute-force scan.
  EXPECT_EQ(inst.FactsWith(r_, 0, C(7)).size(), 1u);
  EXPECT_EQ(inst.FactsWith(r_, 1, C(7)).size(), 1u);
}

// Blocks never move, so a FactRef taken early stays valid while thousands
// of later rows force new blocks (the old vector<Fact> storage could
// reallocate under the reader's feet).
TEST_F(FactStoreTest, FactRefsStableAcrossAppends) {
  Instance inst;
  ASSERT_TRUE(inst.AddFact(r_, {C(0), C(1)}));
  FactRef first = inst.FactsOf(r_)[0];
  for (uint32_t i = 1; i < 5000; ++i) inst.AddFact(r_, {C(i), C(i + 1)});
  EXPECT_EQ(first.arg(0), C(0));
  EXPECT_EQ(first.arg(1), C(1));
  EXPECT_EQ(first.args().size(), 2u);
}

// The open-addressed table starts at 16 slots and doubles at 70% load, so
// inserting thousands of rows drives it through many grows and (pigeonhole)
// a dense population of probe collisions; every row must still dedup and
// look up exactly.
TEST_F(FactStoreTest, OpenAddressedDedupSurvivesGrowthAndCollisions) {
  RelationStore store(s_, 1);
  std::set<uint32_t> reference;
  for (uint32_t i = 0; i < 20000; ++i) {
    uint32_t value = i * 2654435761u % 30000;  // repeats on purpose
    Term t = Term::Constant(value);
    uint32_t id = 0;
    bool inserted = false;
    ASSERT_TRUE(store.Insert(&t, &id, &inserted).ok());
    EXPECT_EQ(inserted, reference.insert(value).second);
  }
  EXPECT_EQ(store.size(), reference.size());
  for (uint32_t value : reference) {
    Term t = Term::Constant(value);
    uint32_t id = 0;
    ASSERT_TRUE(store.Find(&t, &id));
    EXPECT_EQ(store.Row(id)[0], t);
  }
  Term absent = Term::Constant(99999);
  uint32_t id = 0;
  EXPECT_FALSE(store.Find(&absent, &id));
}

// A structural rebuild remaps arena rows in place across block boundaries:
// merged duplicates disappear, postings are rebuilt, and outstanding
// DeltaMarks are invalidated.
TEST_F(FactStoreTest, ReplaceTermsRebuildsArenaRows) {
  constexpr uint32_t kRows = 2 * RelationStore::kRowsPerBlock + 17;
  Instance inst;
  Term merged = universe_.Constant("merged");
  for (uint32_t i = 0; i < kRows; ++i) {
    inst.AddFact(r_, {C(i % 64), C(1000 + i)});
  }
  Instance::DeltaMark mark = inst.Mark();
  std::unordered_map<Term, Term, TermHash> mapping;
  for (uint32_t i = 0; i < 64; ++i) mapping.emplace(C(i), merged);
  inst.ReplaceTerms(mapping);
  EXPECT_FALSE(inst.MarkValid(mark));
  EXPECT_EQ(inst.NumFacts(), kRows);  // second columns all distinct
  for (FactRef f : inst.FactsOf(r_)) EXPECT_EQ(f.arg(0), merged);
  EXPECT_EQ(inst.FactsWith(r_, 0, merged).size(), kRows);
  EXPECT_EQ(inst.FactsWith(r_, 0, C(3)).size(), 0u);

  // Now force actual merges: map all second columns onto one value.
  std::unordered_map<Term, Term, TermHash> collapse;
  for (uint32_t i = 0; i < kRows; ++i) collapse.emplace(C(1000 + i), C(0));
  inst.ReplaceTerms(collapse);
  EXPECT_EQ(inst.NumFacts(), 1u);
  EXPECT_TRUE(inst.Contains(Fact(r_, {merged, C(0)})));
}

// Past the (lowered) row-id limit, inserts fail loudly with a Status —
// never silent truncation — while duplicate inserts and reads keep
// working.
TEST_F(FactStoreTest, CheckedRowIdLimitSurfacesAsStatus) {
  Instance inst;
  inst.SetMaxRowsPerRelationForTesting(4);
  bool inserted = false;
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(inst.TryAddFact(Fact(s_, {C(i)}), &inserted).ok());
    EXPECT_TRUE(inserted);
  }
  // A duplicate is found before the limit check: still OK, not inserted.
  ASSERT_TRUE(inst.TryAddFact(Fact(s_, {C(2)}), &inserted).ok());
  EXPECT_FALSE(inserted);
  // A fifth distinct row exhausts the id space.
  Status full = inst.TryAddFact(Fact(s_, {C(99)}), &inserted);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(inst.NumFacts(), 4u);
  EXPECT_FALSE(inst.Contains(Fact(s_, {C(99)})));
  // The limit is per relation: other relations still accept rows.
  ASSERT_TRUE(inst.TryAddFact(Fact(r_, {C(0), C(1)}), &inserted).ok());
  EXPECT_TRUE(inserted);
}

// Arity mismatches against a relation's existing rows are rejected with
// kInvalidArgument rather than corrupting the fixed-arity arena.
TEST_F(FactStoreTest, ArityMismatchIsInvalidArgument) {
  Instance inst;
  bool inserted = false;
  ASSERT_TRUE(inst.TryAddFact(Fact(r_, {C(0), C(1)}), &inserted).ok());
  std::vector<Term> wrong = {C(0)};
  Status bad = inst.TryAddRow(r_, {wrong.data(), wrong.size()}, &inserted);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(inst.NumFacts(), 1u);
}

// Zero-arity relations hold at most one (empty) row.
TEST_F(FactStoreTest, ZeroArityRelations) {
  Instance inst;
  EXPECT_TRUE(inst.AddFact(z_, {}));
  EXPECT_FALSE(inst.AddFact(z_, {}));
  EXPECT_EQ(inst.NumFacts(), 1u);
  EXPECT_TRUE(inst.Contains(Fact(z_, {})));
}

// ForEachFactUntil visits facts until the callback declines, and reports
// whether the sweep completed.
TEST_F(FactStoreTest, ForEachFactUntilShortCircuits) {
  Instance inst;
  for (uint32_t i = 0; i < 10; ++i) inst.AddFact(s_, {C(i)});
  size_t visited = 0;
  EXPECT_FALSE(inst.ForEachFactUntil([&](FactRef) {
    ++visited;
    return visited < 3;
  }));
  EXPECT_EQ(visited, 3u);
  visited = 0;
  EXPECT_TRUE(inst.ForEachFactUntil([&](FactRef) {
    ++visited;
    return true;
  }));
  EXPECT_EQ(visited, 10u);
}

TEST_F(FactStoreTest, MemoryBytesGrowsWithRows) {
  Instance inst;
  inst.AddFact(r_, {C(0), C(1)});
  size_t small = inst.MemoryBytes();
  EXPECT_GT(small, 0u);
  for (uint32_t i = 0; i < 4096; ++i) inst.AddFact(r_, {C(i), C(i + 1)});
  EXPECT_GT(inst.MemoryBytes(), small);
}

}  // namespace
}  // namespace rbda
