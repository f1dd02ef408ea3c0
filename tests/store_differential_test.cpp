// Differential validation of the packed columnar store: random operation
// sequences executed against both an Instance and a trivially-correct
// reference model (a sorted set of owned Facts) must stay observationally
// identical, and the fuzz battery's chase-differential family must stay
// clean on top of the packed store.
#include <algorithm>
#include <set>
#include <vector>

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
        const std::vector<uint32_t>& postings = inst.FactsWith(rel, p, t);
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

INSTANTIATE_TEST_SUITE_P(Seeds, StoreDifferentialSweep,
                         ::testing::Range<uint64_t>(1, 13));

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
