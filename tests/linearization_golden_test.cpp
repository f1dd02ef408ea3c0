// Golden test of the linearizer's output. Every LinearizedProblem that
// LinearizeForDecision builds for the first 2,000 fuzz-corpus documents
// (seed 1, up to two mutations) and for the paper's running examples is
// rendered — rules in emission order with each rule's variables renamed by
// first occurrence, start facts, goal, depth bound, effective width and
// rule counts — and the rendering's FNV-1a digest must equal the recorded
// one. A change to how the linearizer names its variables leaves the
// digest alone; a change to any rule, relation, fact or bound moves it.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/answerability.h"
#include "fuzz/fuzzer.h"
#include "gtest/gtest.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

constexpr uint64_t kCorpusDocuments = 2000;
// Recorded with a linearizer that minted fresh variables for every rule;
// drawing them from one pool per call must leave the rendering unchanged.
constexpr uint64_t kRecordedDigest = 0xc6568daf91fd8b31ULL;
constexpr size_t kRecordedProblems = 1335;

uint64_t Fnv1a(uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

using VariableNames = std::unordered_map<Term, size_t, TermHash>;

// Appends `atoms` joined by " & ", naming each variable v<k> by its first
// occurrence in `names`; constants and nulls keep their universe names.
void AppendAtoms(const std::vector<Atom>& atoms, const Universe& u,
                 VariableNames* names, std::string* out) {
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) *out += " & ";
    *out += u.RelationName(atoms[i].relation);
    *out += '(';
    for (size_t p = 0; p < atoms[i].args.size(); ++p) {
      if (p > 0) *out += ',';
      Term t = atoms[i].args[p];
      if (t.IsVariable()) {
        auto it = names->emplace(t, names->size()).first;
        *out += "v" + std::to_string(it->second);
      } else {
        *out += u.TermName(t);
      }
    }
    *out += ')';
  }
}

std::string Render(const LinearizedProblem& lin, const Universe& u) {
  std::string out;
  for (const Tgd& tgd : lin.tgds) {
    VariableNames names;
    AppendAtoms(tgd.body(), u, &names, &out);
    out += " -> ";
    AppendAtoms(tgd.head(), u, &names, &out);
    out += '\n';
  }
  lin.start.ForEachFact([&](FactRef f) {
    VariableNames names;
    out += "start ";
    AppendAtoms({Fact(f)}, u, &names, &out);
    out += '\n';
  });
  VariableNames goal_names;
  out += "goal ";
  AppendAtoms(lin.goal, u, &goal_names, &out);
  out += "\njk_depth_bound=" + std::to_string(lin.jk_depth_bound) +
         " effective_width=" + std::to_string(lin.effective_width) +
         " bounded=" + std::to_string(lin.num_rules_bounded) +
         " acyclic=" + std::to_string(lin.num_rules_acyclic) + '\n';
  return out;
}

// Linearizes every query of `text` as the decider does (free variables
// frozen, the query's constants accessible) in one fresh Universe, and
// folds each rendering, or the Status of a refusal, into `digest`.
void FoldDocument(const std::string& text, uint64_t* digest,
                  size_t* problems) {
  Universe u;
  StatusOr<ParsedDocument> doc = ParseDocument(text, &u);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  for (const auto& [name, q] : doc->queries) {
    FrozenQuery frozen = FreezeQuery(q, &u);
    DecisionOptions options;
    options.accessible_constants = frozen.accessible_constants;
    StatusOr<LinearizedProblem> lin =
        LinearizeForDecision(doc->schema, frozen.boolean_q, options);
    std::string rendering = "query " + name + '\n';
    if (lin.ok()) {
      rendering += Render(*lin, u);
      ++*problems;
    } else {
      rendering += lin.status().ToString() + '\n';
    }
    *digest = Fnv1a(*digest, rendering);
  }
}

TEST(LinearizationGoldenTest, OutputMatchesRecordedDigest) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  size_t problems = 0;
  FuzzOptions fuzz;
  fuzz.seed = 1;
  fuzz.max_mutations = 2;
  for (uint64_t i = 0; i < kCorpusDocuments; ++i) {
    FoldDocument(GenerateCaseDocument(fuzz, i, nullptr), &digest, &problems);
  }
  for (const char* text : {kUniversityNoBounds, kUniversityBounded,
                           kUniversityFd, kExample61}) {
    FoldDocument(text, &digest, &problems);
  }
  EXPECT_EQ(problems, kRecordedProblems);
  EXPECT_EQ(digest, kRecordedDigest) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace rbda
