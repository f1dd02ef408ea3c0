// The differential checker battery: N independent ways to answer (or
// cross-examine) the same (schema, query) case, any disagreement between
// which is a Finding.
//
// The paper's claims are Table 1 equivalences — each schema simplification
// is sound *and* complete for monotone answerability on its fragment — and
// this repo substitutes empirical cross-validation for the proofs
// (DESIGN.md §1). The battery is that cross-validation packaged as a
// reusable oracle:
//
//  * decide-vs-naive          — the fragment pipeline of Table 1 against
//    the §3 naive reduction (always sound & complete when its chase
//    terminates); definite verdicts must agree.
//  * simplification-differential — DecideMonotoneAnswerability on the
//    original schema vs. on the fragment's externally-applied
//    simplification (Thm 4.2 / 4.5 / 6.3 / 6.4, Prop 3.3 for the ElimUB
//    fallback); definite verdicts must agree.
//  * oracle-vs-decider        — a found AMonDet counterexample proves
//    non-answerability (Thm 3.1 + Prop 3.2); a complete kAnswerable
//    verdict contradicting it is a bug in one of the two.
//  * plan-vs-decider          — synthesized plans for answerable queries
//    must never produce answers the query does not have (unsound outputs
//    or execution errors are findings; under-saturation of the truncated
//    universal plan is recorded but is not a finding).
//  * chase-differential       — semi-naive vs. naive chase on a random
//    instance: same status, mutually embedding results, identical certain
//    answers.
//  * goal-pruned-vs-full      — the relevance-pruned decide (the default
//    goal-directed mode, chase/relevance.h) against the full-Σ decide;
//    definite verdicts must agree. Pruning being *more* complete (definite
//    where the full chase tripped its budget) is the designed win, not a
//    finding.
//  * linear-vs-generic        — for cases the decider linearizes (IDs,
//    UIDs+FDs), the Johnson–Klug check (semi-naive frontier rounds) against
//    the generic front end (TGD-major rounds, use_semi_naive off: full
//    trigger enumeration and goal checks) run to the same depth and fact
//    budget on the same linearized problem; definite verdicts (kContained,
//    or kNotContained from a terminated chase) must agree.
//  * fault-injection          — the synthesized monotone plan executed
//    under N seeded fault plans in partial-result mode must yield outputs
//    ⊆ the fault-free output (monotonicity ⇒ degradation is a sound
//    underapproximation); under transient-only faults with enough retries
//    the output must converge to exact equality; and a non-monotone
//    variant of the plan (duplicate access + difference) must be rejected
//    by partial-result mode outright.
//  * countermodel-certificate — the witness-reuse countermodel
//    (chase/relevance.h) on the containment problem the decider chases
//    (the linearized problem for IDs and UIDs+FDs, the AMonDet reduction
//    for the FD-free generic fragments); every model it returns must pass
//    ValidateCountermodel, which shares no code with the chase.
//  * roundtrip                — serialize → parse (fresh universe) →
//    serialize must be a fixpoint, and the re-decided verdict must match;
//    the shrinker and the replay corpus depend on this.
//
// All randomness inside a battery run derives from CheckerOptions::seed,
// so a battery run is a pure function of (document, options) — replaying a
// serialized case reproduces its findings bit for bit.
#ifndef RBDA_FUZZ_CHECKERS_H_
#define RBDA_FUZZ_CHECKERS_H_

#include <string>
#include <vector>

#include "core/answerability.h"
#include "logic/conjunctive_query.h"
#include "schema/service_schema.h"

namespace rbda {

struct CheckerOptions {
  /// Master seed for every internal RNG draw (instance generation, oracle
  /// search, plan validation selections).
  uint64_t seed = 1;
  /// Budgets shared by every decide call. Definite verdicts under small
  /// budgets are still definite; incomplete ones are skipped (no signal),
  /// so small budgets trade signal for speed, never correctness.
  DecisionOptions decide;
  size_t oracle_attempts = 40;
  size_t validation_trials = 2;
  /// Test-only fault injection: the simplification-differential checker
  /// compares against a deliberately broken simplification that strips
  /// every result bound (claiming unbounded access), which is unsound on
  /// every fragment. Used to prove the harness catches and shrinks real
  /// disagreements; never enabled outside tests / the --inject-bug flag.
  bool inject_simplification_bug = false;
  /// Test-only fault injection for the robustness layer: the
  /// fault-injection checker additionally executes a non-monotone variant
  /// of the plan with ExecutionPolicy::unsound_allow_nonmonotone_partial
  /// set and a fault schedule that degrades exactly the duplicated access;
  /// the resulting difference over-approximates, which the checker must
  /// flag. Proves the monotonicity restriction on graceful degradation is
  /// load-bearing; never enabled outside tests / --inject-bug=partial.
  bool inject_partial_bug = false;
  /// How many mutated fault plans the fault-injection checker runs the
  /// plan under (beyond the deterministic transient-only convergence run).
  size_t fault_plans = 3;
  /// Test-only fault injection for the relevance analysis: the
  /// goal-pruned-vs-full checker runs its pruned decide with
  /// ChaseOptions::inject_overprune_for_testing, which drops one
  /// backward-reachable relation from the closure (chase/relevance.h) —
  /// an overpruning bug by construction. The checker must catch the
  /// resulting definite-verdict flips; never enabled outside tests / the
  /// --inject-bug=overprune flag.
  bool inject_overprune_bug = false;
  /// Test-only fault injection for the goal matcher: the
  /// linear-vs-generic checker runs the Johnson–Klug check with
  /// ChaseOptions::inject_stale_goal_for_testing, whose goal matcher stops
  /// re-checking unmatched goal components after the first round. The
  /// checker must catch the goals this misses; never enabled outside
  /// tests / the --inject-bug=stale-goal flag.
  bool inject_stale_goal_bug = false;
  // Per-checker toggles (all on by default).
  bool check_naive = true;
  bool check_simplification = true;
  bool check_oracle = true;
  bool check_plan = true;
  bool check_chase = true;
  bool check_goal_pruned = true;
  bool check_linear_generic = true;
  bool check_countermodel = true;
  bool check_roundtrip = true;
  bool check_fault_injection = true;

  CheckerOptions();  // sets fuzz-sized budgets on `decide`
};

/// One disagreement between two members of the battery.
struct Finding {
  std::string checker;  // stable checker name, e.g. "decide-vs-naive"
  std::string detail;   // human-readable description of the disagreement
};

struct CheckReport {
  std::vector<Finding> findings;
  uint64_t checkers_run = 0;      // checkers that produced a signal
  uint64_t checkers_skipped = 0;  // no-signal (budget trips, no plan, ...)

  bool AllAgree() const { return findings.empty(); }
  /// True if some finding came from checker `name`.
  bool Has(const std::string& name) const;
};

/// Runs every enabled checker on the Boolean query `query` over `schema`.
/// `seed_data` (optional) is a fact set the document carried — corpus
/// fixtures plant the instances their bugs needed; it seeds the
/// chase-differential start instance and is preserved by the roundtrip
/// checker.
CheckReport RunCheckerBattery(const ServiceSchema& schema,
                              const ConjunctiveQuery& query,
                              const CheckerOptions& options,
                              const Instance* seed_data = nullptr);

/// Checks a countermodel certificate (CounterModelRefutesGoals) with
/// nothing but Instance, ForEachHomomorphism and FindHomomorphism. OK iff
/// `model` contains `start`, satisfies every TGD, gives every cardinality
/// rule at least min(bound, #matches) distinct targets per accessible
/// binding, and admits no goal match; FailedPrecondition naming the first
/// violation otherwise.
Status ValidateCountermodel(const Instance& start,
                            const std::vector<std::vector<Atom>>& goals,
                            const std::vector<Tgd>& tgds,
                            const std::vector<CardinalityRule>& rules,
                            const Instance& model);

/// The deliberately broken "simplification" behind
/// `inject_simplification_bug`: strips every result bound / lower bound,
/// pretending each bounded method returns all matching tuples.
ServiceSchema StripBoundsForTesting(const ServiceSchema& schema);

}  // namespace rbda

#endif  // RBDA_FUZZ_CHECKERS_H_
