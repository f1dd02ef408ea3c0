// Differential validation of the packed columnar store: random operation
// sequences executed against both an Instance and a trivially-correct
// reference model (a sorted set of owned Facts) must stay observationally
// identical, and the fuzz battery's chase-differential family must stay
// clean on top of the packed store.
#include <algorithm>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/fact_store.h"
#include "data/instance.h"
#include "data/universe.h"
#include "fuzz/checkers.h"
#include "fuzz/fuzzer.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "runtime/schema_generators.h"

namespace rbda {
namespace {

using Model = std::set<Fact>;

// Everything the public surface can observe, checked against the model.
void ExpectMatchesModel(const Instance& inst, const Model& model,
                        const std::vector<RelationId>& relations,
                        const std::vector<Term>& domain) {
  ASSERT_EQ(inst.NumFacts(), model.size());
  // Membership, both directions.
  for (const Fact& f : model) EXPECT_TRUE(inst.Contains(f));
  std::vector<Fact> dumped;
  inst.ForEachFact([&](FactRef f) { dumped.push_back(Fact(f)); });
  ASSERT_EQ(dumped.size(), model.size());
  for (const Fact& f : dumped) EXPECT_EQ(model.count(f), 1u);
  // Per-relation views and the positional index against brute force.
  for (RelationId rel : relations) {
    FactRange facts = inst.FactsOf(rel);
    size_t expected = 0;
    for (const Fact& f : model) {
      if (f.relation == rel) ++expected;
    }
    EXPECT_EQ(facts.size(), expected);
    if (facts.empty()) continue;
    uint32_t arity = facts[0].arity();
    for (uint32_t p = 0; p < arity; ++p) {
      for (Term t : domain) {
        size_t brute = 0;
        for (const Fact& f : model) {
          if (f.relation == rel && f.args[p] == t) ++brute;
        }
        std::span<const uint32_t> postings = inst.FactsWith(rel, p, t);
        EXPECT_EQ(postings.size(), brute);
        for (uint32_t i : postings) EXPECT_EQ(facts[i].arg(p), t);
      }
    }
  }
}

class StoreDifferentialSweep : public ::testing::TestWithParam<uint64_t> {};

// Random add / re-add / replace-term / restrict / union sequences: the
// packed store and the set-of-Facts model must agree after every phase.
TEST_P(StoreDifferentialSweep, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam() * 31 + 3);
  Universe u;
  std::vector<RelationId> relations;
  for (uint32_t i = 0; i < 3; ++i) {
    relations.push_back(*u.AddRelation("D" + std::to_string(GetParam()) +
                                           "_" + std::to_string(i),
                                       1 + i % 3));
  }
  std::vector<Term> domain;
  for (uint32_t i = 0; i < 12; ++i) {
    domain.push_back(u.Constant("d" + std::to_string(i)));
  }

  Instance inst;
  Model model;
  auto random_fact = [&]() {
    RelationId rel = relations[rng.Below(relations.size())];
    uint32_t arity = u.Arity(rel);
    std::vector<Term> args;
    for (uint32_t p = 0; p < arity; ++p) {
      args.push_back(domain[rng.Below(domain.size())]);
    }
    return Fact(rel, std::move(args));
  };

  for (int phase = 0; phase < 4; ++phase) {
    // Adds, with duplicates on purpose (the domain is small).
    for (int i = 0; i < 120; ++i) {
      Fact f = random_fact();
      bool was_new = model.insert(f).second;
      EXPECT_EQ(inst.AddFact(std::move(f)), was_new);
    }
    ExpectMatchesModel(inst, model, relations, domain);

    // A term replacement, possibly merging facts.
    Term from = domain[rng.Below(domain.size())];
    Term to = domain[rng.Below(domain.size())];
    inst.ReplaceTerm(from, to);
    Model replaced;
    for (const Fact& f : model) {
      Fact g = f;
      for (Term& t : g.args) {
        if (t == from) t = to;
      }
      replaced.insert(std::move(g));
    }
    model = std::move(replaced);
    ExpectMatchesModel(inst, model, relations, domain);

    // Restriction to a random subset of relations.
    std::unordered_set<RelationId> keep;
    for (RelationId rel : relations) {
      if (rng.Chance(2, 3)) keep.insert(rel);
    }
    Instance restricted = inst.RestrictTo(keep);
    Model restricted_model;
    for (const Fact& f : model) {
      if (keep.count(f.relation)) restricted_model.insert(f);
    }
    ExpectMatchesModel(restricted, restricted_model, relations, domain);
    EXPECT_TRUE(restricted.IsSubinstanceOf(inst));
    EXPECT_EQ(restricted.IsSubinstanceOf(inst) &&
                  inst.NumFacts() == restricted.NumFacts(),
              inst == restricted);

    // Union back in: a no-op on the model.
    inst.UnionWith(restricted);
    ExpectMatchesModel(inst, model, relations, domain);
  }
}

// Append-only growth keeps DeltaMark ranges exact: facts appended after a
// mark are precisely FactsOf(rel)[DeltaBegin(mark, rel)..].
TEST_P(StoreDifferentialSweep, DeltaMarksDescribeExactlyTheNewFacts) {
  Rng rng(GetParam() * 41 + 5);
  Universe u;
  RelationId rel =
      *u.AddRelation("M" + std::to_string(GetParam()), 2);
  std::vector<Term> domain;
  for (uint32_t i = 0; i < 40; ++i) {
    domain.push_back(u.Constant("m" + std::to_string(i)));
  }
  Instance inst;
  auto add_some = [&]() {
    Model added;
    for (int i = 0; i < 30; ++i) {
      Fact f(rel, {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]});
      if (inst.AddFact(f)) added.insert(std::move(f));
    }
    return added;
  };
  add_some();
  Instance::DeltaMark mark = inst.Mark();
  Model added = add_some();
  ASSERT_TRUE(inst.MarkValid(mark));
  FactRange facts = inst.FactsOf(rel);
  Model delta;
  for (uint32_t i = inst.DeltaBegin(mark, rel); i < facts.size(); ++i) {
    delta.insert(Fact(facts[i]));
  }
  EXPECT_EQ(delta, added);
}

// DeltaBegin on the flat mark: a relation the mark does not hold begins
// at 0, a relation that grew begins at its size when marked, and a mark of
// an empty instance puts every later fact in the delta.
TEST(StoreDeltaMarkTest, DeltaBeginCoversCreatedGrownAndEmptyCases) {
  Universe u;
  RelationId a = *u.AddRelation("A", 1);
  RelationId b = *u.AddRelation("B", 2);
  RelationId c = *u.AddRelation("C", 1);
  Term x = u.Constant("x");
  Term y = u.Constant("y");

  Instance inst;
  const Instance::DeltaMark empty = inst.Mark();
  EXPECT_TRUE(empty.sizes.empty());
  inst.AddFact(a, {x});
  inst.AddFact(c, {x});
  inst.AddFact(c, {y});
  EXPECT_EQ(inst.DeltaBegin(empty, a), 0u);
  EXPECT_EQ(inst.DeltaBegin(empty, c), 0u);

  const Instance::DeltaMark mark = inst.Mark();
  inst.AddFact(c, {u.Constant("z")});  // grew: 2 rows at the mark
  inst.AddFact(b, {x, y});             // created after the mark
  ASSERT_TRUE(inst.MarkValid(mark));
  EXPECT_EQ(inst.DeltaBegin(mark, a), 1u);
  EXPECT_EQ(inst.DeltaBegin(mark, c), 2u);
  EXPECT_EQ(inst.DeltaBegin(mark, b), 0u);
  EXPECT_EQ(inst.FactsOf(c).size() - inst.DeltaBegin(mark, c), 1u);
  EXPECT_EQ(inst.FactsOf(b).size() - inst.DeltaBegin(mark, b), 1u);
  // Relations in the mark are held sorted, whatever their creation order.
  EXPECT_TRUE(std::is_sorted(mark.sizes.begin(), mark.sizes.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreDifferentialSweep,
                         ::testing::Range<uint64_t>(1, 13));

// The posting lists of `rows` against brute force: every (position, term)
// list is exactly the ascending ids of the rows holding `term` there.
void ExpectPostingsMatchRows(FactRange rows, const std::vector<Term>& domain) {
  ASSERT_FALSE(rows.empty());
  for (uint32_t p = 0; p < rows[0].arity(); ++p) {
    for (Term t : domain) {
      std::vector<uint32_t> brute;
      for (uint32_t r = 0; r < rows.size(); ++r) {
        if (rows[r].arg(p) == t) brute.push_back(r);
      }
      std::span<const uint32_t> postings = rows.Postings(p, t);
      EXPECT_EQ(std::vector<uint32_t>(postings.begin(), postings.end()),
                brute)
          << "position " << p << " term " << t.raw();
    }
  }
}

// Lists of one row (kept inline in the table entry), of two rows (the
// second row moves the list to the side vector) and of many rows, across
// several growths of the posting table, a RelationStore copy,
// ReplaceTerms and RestrictTo.
TEST(StorePostingsTest, ListsOfOneTwoAndManyRowsSurviveGrowthAndRebuilds) {
  Universe u;
  RelationId rel = *u.AddRelation("P", 3);
  RelationId other = *u.AddRelation("Q", 1);
  std::vector<Term> domain;
  for (uint32_t i = 0; i < 300; ++i) {
    domain.push_back(u.Constant("p" + std::to_string(i)));
  }
  // Position 0 holds one term in every row (a list of many rows), position
  // 1 pairs rows up (lists of two), position 2 is unique (lists of one).
  // 200 rows post 1 + 100 + 200 keys: the first table of 8 entries (a
  // power of two >= 2 x arity) grows six times.
  RelationStore store(rel, 3);
  Instance inst;
  for (uint32_t i = 0; i < 200; ++i) {
    const Term row[3] = {domain[0], domain[1 + i / 2], domain[100 + i]};
    uint32_t id = 0;
    bool inserted = false;
    ASSERT_TRUE(store.Insert(row, &id, &inserted).ok());
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, i);
    inst.AddRow(rel, row);
    if (i == 0 || i == 1 || i == 5 || i == 63 || i == 199) {
      ExpectPostingsMatchRows(FactRange(&store), domain);
    }
  }
  EXPECT_EQ(store.Postings(0, domain[0]).size(), 200u);
  EXPECT_EQ(store.Postings(1, domain[7]).size(), 2u);
  EXPECT_EQ(store.Postings(2, domain[150]).size(), 1u);
  EXPECT_TRUE(store.Postings(0, domain[1]).empty());
  EXPECT_TRUE(store.Postings(3, domain[0]).empty());  // no such position

  // A copy has its own table and lists: growing it leaves the original.
  RelationStore copy = store;
  ExpectPostingsMatchRows(FactRange(&copy), domain);
  const Term extra[3] = {domain[0], domain[1], domain[299]};
  uint32_t id = 0;
  bool inserted = false;
  ASSERT_TRUE(copy.Insert(extra, &id, &inserted).ok());
  EXPECT_EQ(copy.Postings(1, domain[1]).size(), 3u);
  EXPECT_EQ(store.Postings(1, domain[1]).size(), 2u);
  ExpectPostingsMatchRows(FactRange(&copy), domain);
  ExpectPostingsMatchRows(FactRange(&store), domain);

  // ReplaceTerms merges lists of two into lists of four and empties the
  // replaced keys; RestrictTo copies the table with the rows.
  std::unordered_map<Term, Term, TermHash> mapping;
  for (uint32_t i = 1; i <= 100; i += 2) {
    mapping.emplace(domain[i + 1], domain[i]);
  }
  inst.AddFact(other, {domain[0]});
  inst.ReplaceTerms(mapping);
  ASSERT_EQ(inst.FactsOf(rel).size(), 200u);
  EXPECT_EQ(inst.FactsWith(rel, 1, domain[3]).size(), 4u);
  EXPECT_TRUE(inst.FactsWith(rel, 1, domain[4]).empty());
  ExpectPostingsMatchRows(inst.FactsOf(rel), domain);
  Instance restricted = inst.RestrictTo({rel});
  ExpectPostingsMatchRows(restricted.FactsOf(rel), domain);
  EXPECT_TRUE(restricted.FactsWith(other, 0, domain[0]).empty());
  EXPECT_EQ(inst.FactsWith(other, 0, domain[0]).size(), 1u);
}

// MemoryBytes counts the arena, the dedup slots, the posting table's
// 24-byte entries and the long lists' ids.
TEST(StorePostingsTest, MemoryBytesCountsThePostingLayout) {
  Universe u;
  RelationId rel = *u.AddRelation("M", 3);
  std::vector<Term> domain;
  for (uint32_t i = 0; i < 101; ++i) {
    domain.push_back(u.Constant("m" + std::to_string(i)));
  }
  // One row: a 16-row arena block, the 16-slot dedup table and a first
  // posting table of 8 entries.
  RelationStore one(rel, 3);
  const Term row[3] = {domain[0], domain[1], domain[2]};
  uint32_t id = 0;
  bool inserted = false;
  ASSERT_TRUE(one.Insert(row, &id, &inserted).ok());
  EXPECT_EQ(one.MemoryBytes(),
            RelationStore::kRowsPerBlock * 3 * sizeof(Term) +
                16 * sizeof(uint32_t) + 8 * 24);

  // 100 rows sharing positions 0 and 1: two long lists of 100 ids, and
  // 102 keys in a table of at least 102 / 0.7 entries.
  RelationStore many(rel, 3);
  for (uint32_t i = 0; i < 100; ++i) {
    const Term r[3] = {domain[0], domain[0], domain[1 + i]};
    ASSERT_TRUE(many.Insert(r, &id, &inserted).ok());
  }
  const size_t arena = 7 * RelationStore::kRowsPerBlock * 3 * sizeof(Term);
  const size_t dedup = 100 * sizeof(uint32_t);
  const size_t table = 146 * 24;
  const size_t lists = 2 * 100 * sizeof(uint32_t);
  const size_t floor = arena + dedup + table + lists;
  EXPECT_GE(many.MemoryBytes(), floor);
  // Tables and lists grow by doubling: the total stays under twice that.
  EXPECT_LT(many.MemoryBytes(), 2 * floor);
}

// The fuzz battery's chase-differential family (semi-naive vs naive over
// generated schemas), run against the packed store via the real fuzz
// document pipeline.
class ChaseDifferentialFamily : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseDifferentialFamily, CleanOnPackedStore) {
  FuzzOptions fuzz;
  fuzz.seed = 77;
  FuzzFamily family;
  std::string document = GenerateCaseDocument(fuzz, GetParam(), &family);
  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(document, &universe);
  ASSERT_TRUE(doc.ok()) << document;
  ASSERT_FALSE(doc->queries.empty());

  CheckerOptions options;
  options.seed = GetParam() * 13 + 1;
  options.check_naive = false;
  options.check_simplification = false;
  options.check_oracle = false;
  options.check_plan = false;
  options.check_roundtrip = false;
  options.check_fault_injection = false;
  options.check_chase = true;

  ConjunctiveQuery query =
      ConjunctiveQuery::Boolean(doc->queries.begin()->second.atoms());
  CheckReport report = RunCheckerBattery(doc->schema, query, options,
                                         doc->data.Empty() ? nullptr
                                                           : &doc->data);
  EXPECT_TRUE(report.AllAgree())
      << report.findings.front().checker << ": "
      << report.findings.front().detail << "\n"
      << document;
}

INSTANTIATE_TEST_SUITE_P(Cases, ChaseDifferentialFamily,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace rbda
