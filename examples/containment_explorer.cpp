// Containment explorer: the DSL front-end to the whole pipeline.
//
// Reads a schema+query document (from a file given as argv[1], or a
// built-in sample), then shows each stage of the paper's method:
//   * the AMonDet reduction Γ (§3), naive and rewritten;
//   * the chase-based containment run and its verdict;
//   * the fragment-specific decision (Table 1 dispatch);
//   * a synthesized plan for answerable queries.
//
//   $ ./containment_explorer [schema.rbda]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/answerability.h"
#include "core/plan_synthesis.h"
#include "parser/parser.h"

using namespace rbda;

namespace {

const char* kSample = R"(
# Example 3.5: the university schema with a result bound of 100.
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
method ud on Udirectory inputs() limit 100
tgd Udirectory(i, a, p) -> Prof(i, n, s)
query Q() :- Prof(i, n, s)
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kSample;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(text, &universe);
  if (!doc.ok()) {
    std::fprintf(stderr, "parse error: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::printf("== Schema ==\n%s\n", doc->schema.ToString().c_str());

  for (const auto& [name, query] : doc->queries) {
    std::printf("== Query %s ==\n%s\n\n", name.c_str(),
                query.ToString(universe).c_str());
    FrozenQuery frozen = FreezeQuery(query, &universe);

    // ---- The naive §3 reduction. ----
    ReductionOptions naive;
    naive.mode = ReductionMode::kNaive;
    StatusOr<AmonDetReduction> red = BuildAmonDetReduction(
        doc->schema, frozen.boolean_q, naive, &frozen.accessible_constants);
    if (red.ok()) {
      std::printf("-- Naive AMonDet reduction (Γ) --\n%s",
                  red->gamma.ToString(universe).c_str());
      for (const CardinalityRule& rule : red->cardinality_rules) {
        std::printf("[lower-bound axiom] accessible inputs & >=j matches in "
                    "%s => >=j matches in %s, for j <= %u\n",
                    universe.RelationName(rule.source_rel).c_str(),
                    universe.RelationName(rule.target_rel).c_str(),
                    rule.bound);
      }
      std::printf("start instance:\n%s\n",
                  red->start.ToString(universe).c_str());

      ContainmentOutcome outcome = CheckContainmentFrom(
          red->start, red->q_prime.atoms(), red->gamma, &universe, {},
          red->cardinality_rules);
      const char* verdict =
          outcome.verdict == ContainmentVerdict::kContained
              ? "CONTAINED (answerable)"
              : outcome.verdict == ContainmentVerdict::kNotContained
                    ? "NOT CONTAINED (not answerable)"
                    : "UNKNOWN (budget)";
      std::printf("naive chase: %s after %llu rounds, %zu facts\n\n", verdict,
                  static_cast<unsigned long long>(outcome.chase.rounds),
                  outcome.chase.instance.NumFacts());
    }

    // ---- The Table 1 dispatcher. ----
    StatusOr<Decision> decision =
        DecideMonotoneAnswerability(doc->schema, frozen.boolean_q);
    if (!decision.ok()) {
      std::printf("decision error: %s\n",
                  decision.status().ToString().c_str());
      continue;
    }
    std::printf("-- Decision --\nfragment:  %s\npipeline:  %s\nverdict:   "
                "%s%s\nchase:     %llu rounds, %llu TGD steps, %zu facts\n",
                FragmentName(decision->fragment),
                decision->procedure.c_str(),
                AnswerabilityName(decision->verdict),
                decision->complete ? "" : " (budget-limited)",
                static_cast<unsigned long long>(decision->chase_rounds),
                static_cast<unsigned long long>(decision->tgd_steps),
                static_cast<size_t>(decision->chase_facts));
    if (decision->depth_bound > 0) {
      std::printf("JK depth:  reached %llu of bound %llu\n",
                  static_cast<unsigned long long>(decision->chase_rounds),
                  static_cast<unsigned long long>(decision->depth_bound));
    }

    if (decision->verdict == Answerability::kAnswerable) {
      StatusOr<Plan> plan = SynthesizeUniversalPlan(doc->schema, query);
      if (plan.ok()) {
        std::printf("\n-- Synthesized plan --\n%s",
                    plan->ToString(universe).c_str());
      } else {
        std::printf("\n(plan synthesis: %s)\n",
                    plan.status().ToString().c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}
