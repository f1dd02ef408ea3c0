// Tests for the differential fuzzing harness (src/fuzz/): determinism of
// the whole pipeline under a fixed seed, detection + shrinking of a
// deliberately injected simplification bug, and the individual mutation /
// shrinking operators.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chase/relevance.h"
#include "fuzz/checkers.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutators.h"
#include "fuzz/shrink.h"
#include "gtest/gtest.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

// Counts lines starting with `prefix` in a serialized document.
size_t CountLines(const std::string& document, const std::string& prefix) {
  size_t count = 0;
  std::istringstream in(document);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(FuzzCaseSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(FuzzCaseSeed(1, 0), FuzzCaseSeed(1, 0));
  EXPECT_NE(FuzzCaseSeed(1, 0), FuzzCaseSeed(1, 1));
  EXPECT_NE(FuzzCaseSeed(1, 0), FuzzCaseSeed(2, 0));
  // Neighbouring case seeds should differ in many bits, not just the low
  // ones (they seed independent generator streams).
  uint64_t diff = FuzzCaseSeed(1, 5) ^ FuzzCaseSeed(1, 6);
  EXPECT_GT(__builtin_popcountll(diff), 8);
}

TEST(FuzzFamilyTest, ParseRoundTrip) {
  for (FuzzFamily family : {FuzzFamily::kId, FuzzFamily::kFd,
                            FuzzFamily::kUidFd, FuzzFamily::kChain}) {
    FuzzFamily parsed;
    ASSERT_TRUE(ParseFuzzFamily(FuzzFamilyName(family), &parsed));
    EXPECT_EQ(parsed, family);
  }
  FuzzFamily parsed;
  EXPECT_FALSE(ParseFuzzFamily("tgds", &parsed));
  EXPECT_FALSE(ParseFuzzFamily("", &parsed));
}

TEST(FuzzGenerateTest, CaseDocumentIsDeterministicAndParses) {
  FuzzOptions options;
  options.seed = 42;
  for (uint64_t index = 0; index < 8; ++index) {
    FuzzFamily family_a, family_b;
    std::string a = GenerateCaseDocument(options, index, &family_a);
    std::string b = GenerateCaseDocument(options, index, &family_b);
    EXPECT_EQ(a, b) << "case " << index;
    EXPECT_EQ(family_a, family_b);
    Universe universe;
    StatusOr<ParsedDocument> doc = ParseDocument(a, &universe);
    EXPECT_TRUE(doc.ok()) << "case " << index << ":\n" << a;
    EXPECT_FALSE(doc->queries.empty());
  }
}

TEST(FuzzLoopTest, CleanRunHasNoFindings) {
  FuzzOptions options;
  options.seed = 1;
  options.iters = 60;
  FuzzReport report = RunFuzzer(options);
  EXPECT_EQ(report.cases, 60u);
  EXPECT_TRUE(report.findings.empty())
      << "first finding: " << report.findings.front().checker << ": "
      << report.findings.front().detail << "\n"
      << report.findings.front().document;
}

// Satellite 2: identical seeds must produce byte-identical findings —
// every internal RNG draw (instance generation, oracle search subsets,
// validation selections) is threaded from the case seed.
TEST(FuzzLoopTest, IdenticalSeedsProduceIdenticalFindings) {
  FuzzOptions options;
  options.seed = 7;
  options.iters = 80;
  options.checkers.inject_simplification_bug = true;  // guarantees findings
  FuzzReport first = RunFuzzer(options);
  FuzzReport second = RunFuzzer(options);
  ASSERT_FALSE(first.findings.empty());
  ASSERT_EQ(first.findings.size(), second.findings.size());
  for (size_t i = 0; i < first.findings.size(); ++i) {
    EXPECT_EQ(first.findings[i].case_index, second.findings[i].case_index);
    EXPECT_EQ(first.findings[i].case_seed, second.findings[i].case_seed);
    EXPECT_EQ(first.findings[i].checker, second.findings[i].checker);
    EXPECT_EQ(first.findings[i].detail, second.findings[i].detail);
    EXPECT_EQ(first.findings[i].document, second.findings[i].document);
    EXPECT_EQ(first.findings[i].shrunk, second.findings[i].shrunk);
  }
}

// Acceptance criterion: the injected bug is caught and every shrunk repro
// has at most 3 relations and 3 constraints.
TEST(FuzzLoopTest, InjectedBugIsCaughtAndShrunk) {
  FuzzOptions options;
  options.seed = 1;
  options.iters = 50;
  options.checkers.inject_simplification_bug = true;
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.findings.empty())
      << "the injected StripBounds bug went undetected";
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.checker, "simplification-differential") << f.detail;
    EXPECT_LE(CountLines(f.shrunk, "relation "), 3u) << f.shrunk;
    EXPECT_LE(CountLines(f.shrunk, "tgd ") + CountLines(f.shrunk, "fd "), 3u)
        << f.shrunk;
    // The minimized document still reproduces under its recorded seed.
    CheckerOptions checkers = options.checkers;
    checkers.seed = f.case_seed;
    StatusOr<CheckReport> replay = ReplayDocument(f.shrunk, checkers);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->Has("simplification-differential")) << f.shrunk;
  }
}

TEST(FuzzLoopTest, ReprosLandInAMissingNestedOutDir) {
  // The loop creates a missing out_dir, nested levels included, instead of
  // dropping the repro files; a path that cannot be created leaves
  // repro_path empty.
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "fuzz_repro_out_dir";
  std::filesystem::remove_all(root);
  FuzzOptions options;
  options.seed = 1;
  options.iters = 30;
  options.shrink = false;
  options.checkers.inject_simplification_bug = true;
  options.out_dir = (root / "missing" / "nested").string();
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.findings.empty());
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.repro_path, ReproFilePath(options.out_dir, f));
    EXPECT_TRUE(std::filesystem::is_regular_file(f.repro_path))
        << f.repro_path;
  }

  const std::filesystem::path blocker = root / "blocker";
  std::ofstream(blocker).put('x');
  options.out_dir = (blocker / "nested").string();
  report = RunFuzzer(options);
  ASSERT_FALSE(report.findings.empty());
  for (const FuzzFinding& f : report.findings) {
    EXPECT_TRUE(f.repro_path.empty()) << f.repro_path;
  }
  std::filesystem::remove_all(root);
}

TEST(FuzzLoopTest, InjectedPartialBugIsCaughtAndShrunk) {
  // --inject-bug=partial: a degraded non-monotone plan is allowed to
  // return results. The fault-injection checker must flag the resulting
  // over-approximation and the shrinker must minimize the document.
  FuzzOptions options;
  options.seed = 1;
  options.iters = 50;
  options.checkers.inject_partial_bug = true;
  // Only the robustness checker, so every finding is attributable.
  CheckerOptions& c = options.checkers;
  c.check_naive = c.check_simplification = c.check_oracle = c.check_plan =
      c.check_chase = c.check_goal_pruned = c.check_linear_generic =
          c.check_countermodel = c.check_roundtrip = false;
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.findings.empty())
      << "the injected non-monotone degradation bug went undetected";
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.checker, "fault-injection") << f.detail;
    EXPECT_LE(CountLines(f.shrunk, "relation "), 3u) << f.shrunk;
    CheckerOptions checkers = options.checkers;
    checkers.seed = f.case_seed;
    StatusOr<CheckReport> replay = ReplayDocument(f.shrunk, checkers);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->Has("fault-injection")) << f.shrunk;
  }
}

TEST(FuzzLoopTest, InjectedOverpruneBugIsCaughtAndShrunk) {
  // --inject-bug=overprune: the relevance closure silently drops one
  // backward-reachable relation (chase/relevance.h), so the pruned chase
  // misses constraints it needs and flips definite verdicts. The
  // goal-pruned-vs-full checker must catch the flip and the shrinker must
  // minimize the document.
  FuzzOptions options;
  options.seed = 1;
  options.iters = 60;
  options.checkers.inject_overprune_bug = true;
  // Only the prune-differential checker, so every finding is attributable.
  CheckerOptions& c = options.checkers;
  c.check_naive = c.check_simplification = c.check_oracle = c.check_plan =
      c.check_chase = c.check_linear_generic = c.check_countermodel =
          c.check_roundtrip = c.check_fault_injection = false;
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.findings.empty())
      << "the injected overpruning bug went undetected";
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.checker, "goal-pruned-vs-full") << f.detail;
    EXPECT_LE(CountLines(f.shrunk, "relation "), 3u) << f.shrunk;
    // The minimized document still reproduces under its recorded seed.
    CheckerOptions checkers = options.checkers;
    checkers.seed = f.case_seed;
    StatusOr<CheckReport> replay = ReplayDocument(f.shrunk, checkers);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->Has("goal-pruned-vs-full")) << f.shrunk;
  }
}

TEST(FuzzLoopTest, InjectedStaleGoalBugIsCaughtAndShrunk) {
  // --inject-bug=stale-goal: the Johnson–Klug check's goal matcher stops
  // re-checking unmatched goal components after the first round, so it
  // misses goals that first match deeper. The linear-vs-generic checker
  // must catch the disagreement with the generic chase and the shrinker
  // must minimize the document.
  FuzzOptions options;
  options.seed = 1;
  options.iters = 60;
  options.checkers.inject_stale_goal_bug = true;
  // Only the engine-differential checker, so every finding is attributable.
  CheckerOptions& c = options.checkers;
  c.check_naive = c.check_simplification = c.check_oracle = c.check_plan =
      c.check_chase = c.check_goal_pruned = c.check_countermodel =
          c.check_roundtrip = c.check_fault_injection = false;
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.findings.empty())
      << "the injected stale goal matcher went undetected";
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.checker, "linear-vs-generic") << f.detail;
    EXPECT_LE(CountLines(f.shrunk, "relation "), 3u) << f.shrunk;
    EXPECT_LE(CountLines(f.shrunk, "tgd "), 3u) << f.shrunk;
    // The minimized document still reproduces under its recorded seed,
    // and is clean without the injected bug.
    CheckerOptions checkers = options.checkers;
    checkers.seed = f.case_seed;
    StatusOr<CheckReport> replay = ReplayDocument(f.shrunk, checkers);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->Has("linear-vs-generic")) << f.shrunk;
    checkers.inject_stale_goal_bug = false;
    StatusOr<CheckReport> clean = ReplayDocument(f.shrunk, checkers);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(clean->AllAgree()) << f.shrunk;
  }
}

// The countermodel certificate checker shares no code with the chase.
// The real model of an infinite chase (R → ∃z S, S → ∃z R) validates; the
// same model minus one derived head row, judged against a goal it
// satisfies, or held to a start fact it lacks does not.
TEST(ValidateCountermodelTest, AcceptsTheModelRejectsBrokenOnes) {
  Universe u;
  RelationId r = *u.AddRelation("R", 2);
  RelationId s = *u.AddRelation("S", 2);
  Term x = u.Variable("x");
  Term y = u.Variable("y");
  Term z = u.Variable("z");
  Term a = u.Constant("a");
  Term b = u.Constant("b");
  std::vector<Tgd> tgds;
  tgds.emplace_back(std::vector<Atom>{Atom(r, {x, y})},
                    std::vector<Atom>{Atom(s, {y, z})});
  tgds.emplace_back(std::vector<Atom>{Atom(s, {x, y})},
                    std::vector<Atom>{Atom(r, {y, z})});
  Instance start;
  start.AddFact(r, {a, b});
  std::vector<std::vector<Atom>> goals{{Atom(s, {x, x})}};
  std::optional<Instance> model =
      CounterModelRefutesGoals(start, goals, tgds, {}, &u);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(ValidateCountermodel(start, goals, tgds, {}, *model).ok());

  // S(b, n) is the head row R(a, b) needs.
  Instance missing;
  bool dropped = false;
  model->ForEachFact([&](FactRef f) {
    if (!dropped && f.relation() == s && f.arg(0) == b) {
      dropped = true;
    } else {
      missing.AddFact(f);
    }
  });
  ASSERT_TRUE(dropped);
  Status no_row = ValidateCountermodel(start, goals, tgds, {}, missing);
  EXPECT_FALSE(no_row.ok());
  EXPECT_NE(no_row.message().find("TGD #0"), std::string::npos)
      << no_row.message();

  Status matched =
      ValidateCountermodel(start, {{Atom(s, {x, y})}}, tgds, {}, *model);
  EXPECT_FALSE(matched.ok());
  EXPECT_NE(matched.message().find("goal #0"), std::string::npos)
      << matched.message();

  Instance bigger_start = start;
  bigger_start.AddFact(r, {b, a});
  EXPECT_FALSE(
      ValidateCountermodel(bigger_start, goals, tgds, {}, *model).ok());
}

// Cardinality rules: binding a has two R matches and bound 2, so the
// model needs two distinct U targets for it.
TEST(ValidateCountermodelTest, ChecksCardinalityLowerBounds) {
  Universe u;
  RelationId r = *u.AddRelation("R", 2);
  RelationId target = *u.AddRelation("U", 2);
  RelationId acc = *u.AddRelation("accessible", 1);
  Term x = u.Variable("x");
  Term a = u.Constant("a");
  CardinalityRule rule{r, {0}, target, 2, acc};
  Instance start;
  start.AddFact(r, {a, u.Constant("b")});
  start.AddFact(r, {a, u.Constant("c")});
  start.AddFact(acc, {a});
  std::vector<std::vector<Atom>> goals{{Atom(target, {x, x})}};
  std::optional<Instance> model =
      CounterModelRefutesGoals(start, goals, {}, {rule}, &u);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(ValidateCountermodel(start, goals, {}, {rule}, *model).ok());

  Instance one_target;
  bool dropped = false;
  model->ForEachFact([&](FactRef f) {
    if (!dropped && f.relation() == target) {
      dropped = true;
    } else {
      one_target.AddFact(f);
    }
  });
  Status short_by_one =
      ValidateCountermodel(start, goals, {}, {rule}, one_target);
  EXPECT_FALSE(short_by_one.ok());
  EXPECT_NE(short_by_one.message().find("1 of 2"), std::string::npos)
      << short_by_one.message();
}

TEST(FuzzReplayTest, RejectsDocumentWithoutQuery) {
  CheckerOptions checkers;
  EXPECT_FALSE(ReplayDocument("relation R(p0)\nmethod m on R inputs()\n",
                              checkers)
                   .ok());
  EXPECT_FALSE(ReplayDocument("relation R(p0\n", checkers).ok());
}

TEST(FuzzReplayTest, PaperFixtureAgrees) {
  CheckerOptions checkers;
  checkers.seed = 3;
  StatusOr<CheckReport> report =
      ReplayDocument(kUniversityBounded, checkers);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->AllAgree())
      << report->findings.front().checker << ": "
      << report->findings.front().detail;
  EXPECT_GT(report->checkers_run, 0u);
}

TEST(StripBoundsTest, RemovesEveryBound) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  ASSERT_TRUE(doc.schema.HasResultBoundedMethods());
  ServiceSchema stripped = StripBoundsForTesting(doc.schema);
  EXPECT_FALSE(stripped.HasResultBoundedMethods());
  EXPECT_EQ(stripped.methods().size(), doc.schema.methods().size());
}

// ---- Mutators. ----

class MutatorTest : public ::testing::Test {
 protected:
  ServiceSchema Parse(const char* text) {
    doc_ = std::make_unique<ParsedDocument>(MustParse(text, &universe_));
    return doc_->schema;
  }
  Universe universe_;
  std::unique_ptr<ParsedDocument> doc_;
};

TEST_F(MutatorTest, DropConstraintRemovesExactlyOne) {
  ServiceSchema schema = Parse(kUniversityFd);
  size_t before = schema.constraints().fds.size();
  ASSERT_GT(before, 0u);
  Rng rng(5);
  EXPECT_TRUE(ApplyMutation(&schema, Mutation::kDropConstraint, &rng));
  EXPECT_EQ(schema.constraints().fds.size() + schema.constraints().tgds.size(),
            before - 1 + 0u);
}

TEST_F(MutatorTest, DropConstraintNoOpOnConstraintFreeSchema) {
  ServiceSchema schema = Parse(
      "relation R(p0, p1)\nmethod m on R inputs()\n");
  Rng rng(5);
  EXPECT_FALSE(ApplyMutation(&schema, Mutation::kDropConstraint, &rng));
}

TEST_F(MutatorTest, FlipBoundChangesSomeMethod) {
  ServiceSchema schema = Parse(kUniversityBounded);
  std::vector<AccessMethod> before = schema.methods();
  Rng rng(5);
  ASSERT_TRUE(ApplyMutation(&schema, Mutation::kFlipBound, &rng));
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    const AccessMethod& a = before[i];
    const AccessMethod& b = schema.methods()[i];
    if (a.bound_kind != b.bound_kind || a.bound != b.bound) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST_F(MutatorTest, AddConstraintAddsOne) {
  ServiceSchema schema = Parse(
      "relation R(p0, p1)\nrelation S(p0, p1)\n"
      "method mr on R inputs()\nmethod ms on S inputs()\n");
  Rng rng(5);
  ASSERT_TRUE(ApplyMutation(&schema, Mutation::kAddConstraint, &rng));
  EXPECT_EQ(schema.constraints().tgds.size() + schema.constraints().fds.size(),
            1u);
  EXPECT_TRUE(schema.Validate().ok());
}

TEST_F(MutatorTest, RandomMutationsPreserveValidity) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Universe universe;
    ParsedDocument doc = MustParse(kUniversityBounded, &universe);
    ServiceSchema schema = doc.schema;
    Rng rng(seed);
    ApplyRandomMutations(&schema, 5, &rng);
    EXPECT_TRUE(schema.Validate().ok()) << "seed " << seed;
  }
}

// ---- Shrinker. ----

TEST(ShrinkTest, DropsIrrelevantLines) {
  const std::string document =
      "relation KEEP(p0)\n"
      "relation NOISE(p0, p1)\n"
      "method mk on KEEP inputs()\n"
      "method mn on NOISE inputs(0) limit 5\n"
      "query Q() :- KEEP(x)\n";
  // Reproduces as long as the KEEP relation is declared.
  ShrinkResult result = ShrinkDocument(document, [](const std::string& d) {
    return d.find("relation KEEP") != std::string::npos;
  });
  EXPECT_NE(result.document.find("relation KEEP"), std::string::npos);
  EXPECT_EQ(result.document.find("NOISE"), std::string::npos);
  EXPECT_GT(result.accepted, 0u);
  EXPECT_LT(result.document.size(), document.size());
}

TEST(ShrinkTest, DropsConjunctsInsideLines) {
  const std::string document =
      "tgd A(x) & B(x) & C(x) -> D(x) & E(x)\n";
  // Reproduces as long as some tgd mentions B in the body.
  ShrinkResult result = ShrinkDocument(document, [](const std::string& d) {
    return d.find("B(x)") != std::string::npos &&
           d.find("tgd") != std::string::npos;
  });
  EXPECT_NE(result.document.find("B(x)"), std::string::npos);
  EXPECT_EQ(result.document.find("A(x)"), std::string::npos);
  EXPECT_EQ(result.document.find("C(x)"), std::string::npos);
}

TEST(ShrinkTest, ShrinksBoundsTowardOne) {
  const std::string document = "method m on R inputs(0) limit 100\n";
  // Reproduces while the method keeps *some* result bound.
  ShrinkResult result = ShrinkDocument(document, [](const std::string& d) {
    return d.find(" limit ") != std::string::npos;
  });
  EXPECT_NE(result.document.find("limit 1"), std::string::npos)
      << result.document;
}

TEST(ShrinkTest, ReturnsOriginalWhenNothingDroppable) {
  const std::string document = "relation R(p0)\n";
  ShrinkResult result = ShrinkDocument(document, [](const std::string& d) {
    return d.find("relation R") != std::string::npos;
  });
  EXPECT_EQ(result.document, document);
}

}  // namespace
}  // namespace rbda
