// The chase (paper §2, "Query containment and chase proofs").
//
// Starting from an instance, repeatedly fire active triggers of TGDs (add
// head facts, minting fresh nulls for existential variables) and repair FD
// violations (EGD steps that merge terms). The run is round-based and
// budgeted; it records a proof trace that later stages (plan synthesis)
// consume.
//
// Trigger enumeration is *semi-naive* (delta-driven): each round only
// looks for body homomorphisms with at least one atom in the facts added
// since the previous round started (the delta), because a trigger whose
// atoms all predate the delta was already considered — and the restricted
// chase's activeness test is monotone, so a once-inactive trigger stays
// inactive while facts only accumulate. The engine falls back to full
// (naive) evaluation exactly when that argument breaks down:
//   * on round 1, where there is no previous delta;
//   * for the round after an EGD repair merged terms — the merge rebuilds
//     the fact vectors (invalidating delta ranges) and remaps terms, so
//     activeness conclusions from before the merge no longer transfer;
//   * when ChaseOptions::use_semi_naive is off (ablation/testing).
// Goal checks in RunChaseUntil* are delta-restricted under the same rules.
// Each enabled TGD is compiled once per chase into a trigger plan
// (chase/trigger_plan.h), after the start's goal check, so a run whose goal
// already holds compiles nothing.
//
// One engine, two orders of firing within a round, picked by the entry:
//   * TGD-major rounds, for RunChase, RunChaseUntil and RunChaseUntilAny:
//     TGD by TGD, each TGD's triggers are materialized as slot tuples,
//     deduplicated by their exported slots, and fired from the slots. A
//     round's delta has no upper end, so a round can fire on facts created
//     earlier in the same round.
//   * Frontier rounds, for RunFrontierChaseUntilAny only: TGDs with one
//     body atom, no FDs, no cardinality rules (the Johnson–Klug tier of
//     chase/containment.h). Round k goes through the facts round k-1
//     created (round 1: every start fact, in ForEachFact order) in creation
//     order, and fires each fact's TGDs in TGD order, found through a
//     by-body-relation index; each activeness test counts in
//     containment.activeness_checks. A trigger has one body fact, so round
//     k creates exactly the facts of derivation depth k: a depth bound is a
//     max_rounds bound (DESIGN.md, "Frontier rounds"). Without
//     use_semi_naive a round's frontier is every fact so far, in that same
//     order; it fires the same triggers, since an older fact's triggers are
//     all satisfied.
//
// FD repair runs after every round (and once before round 1). It first
// checks only the facts added since the previous repair (every fact on the
// first call): each is compared with the first row, in row order, holding
// its determiner values, found through a column posting. The older facts
// satisfy every FD, so a violation exists iff one of these comparisons
// disagrees; only then does the union-find merge loop run (DESIGN.md, "The
// delta FD check and delta cardinality rounds"). The check is exact, so it
// does not depend on use_semi_naive.
//
// The engine also supports the cardinality-transfer rules produced by the
// *naive* AMonDet reduction of §3 — the "∃≥j" accessibility axioms for
// result lower bounds — under the standard chase convention that distinct
// terms denote distinct values. The decider's IDs+FDs path, which no
// simplification theorem covers, runs on them, as does the force_naive
// ablation. A delta round checks only the bindings that can newly need
// witnesses: those of source rows in the delta, and those of source rows
// holding a newly accessible term at an input position (found through
// postings). A full round checks every binding. Either way bindings are
// visited in lexicographic order, so fresh nulls are minted in one order
// (CollectCardinalityBindings).
#ifndef RBDA_CHASE_CHASE_H_
#define RBDA_CHASE_CHASE_H_

#include <cstdint>
#include <vector>

#include "constraints/constraint_set.h"

namespace rbda {

/// Naive §3 lower-bound axiom: if the values at `input_positions` of some
/// binding are all accessible and `source_rel` has j ≤ k distinct matching
/// tuples, then `target_rel` must contain at least j distinct matching
/// tuples (fresh nulls fill the non-input positions of created facts).
struct CardinalityRule {
  RelationId source_rel = 0;
  std::vector<uint32_t> input_positions;
  RelationId target_rel = 0;
  uint32_t bound = 1;              // k
  RelationId accessible_rel = 0;   // the unary accessible predicate
  /// When false, the rule fires for every binding regardless of
  /// accessibility (AxiomRB's unconditional lower-bound axioms).
  bool require_accessible = true;
};

/// The bindings one round checks a cardinality rule for, filled by
/// CollectCardinalityBindings; reused across rounds to keep its storage.
struct CardinalityBindings {
  size_t width = 0;             // rule.input_positions.size()
  std::vector<Term> values;     // binding i is values[i * width, +width)
  std::vector<uint64_t> need;   // binding i's j, min(bound, #source rows)
  std::vector<uint32_t> rows;   // scratch: candidate source rows

  size_t size() const { return need.size(); }
  const Term* binding(size_t i) const { return values.data() + i * width; }
};

/// Collects the bindings of `rule` over `instance` that a round checks,
/// each once, in ascending lexicographic order of their values
/// (Term::operator<). With `delta` null, the binding of every source row;
/// otherwise only those of source rows in the delta and of source rows
/// holding, at an input position, a term added to the accessible relation
/// in the delta: no other binding's source count or accessibility changed,
/// and its target count only grew. A binding with a value outside the
/// accessible relation is dropped unless the rule is unconditional. The
/// chase's firings cannot change that: a fired row's input values are
/// accessible already and its other values are fresh nulls. need[i] =
/// min(bound, number of source rows holding binding i), counted now,
/// before the caller fires anything. `delta` must be valid for `instance`.
void CollectCardinalityBindings(const Instance& instance,
                                const CardinalityRule& rule,
                                const Instance::DeltaMark* delta,
                                CardinalityBindings* out);

/// The rows of rule.target_rel whose input positions hold `binding`,
/// counted through column postings up to `cap`.
uint64_t CountCardinalityTargets(const Instance& instance,
                                 const CardinalityRule& rule,
                                 const Term* binding, uint64_t cap);

struct ChaseOptions {
  uint64_t max_rounds = 1000;
  /// Fact budget, enforced *inside* rounds: a round stops at the trigger
  /// whose firing pushed the instance past the budget (exhausted=kFacts),
  /// so no single round can overshoot unboundedly.
  uint64_t max_facts = 200000;
  bool record_trace = false;
  /// Delta-driven trigger enumeration (see file comment). Off = the naive
  /// re-enumeration of every body homomorphism each round; results are
  /// homomorphically equivalent either way (ablation/property tests).
  bool use_semi_naive = true;
  /// Goal-directed relevance pruning (chase/relevance.h): the containment
  /// engines compute the relations backward-reachable from their goal and
  /// skip every TGD with no relevant head relation and every cardinality
  /// rule with an irrelevant target. Sound over-approximation — exact
  /// relevance is undecidable. Tests and the goal-pruned-vs-full fuzz
  /// checker turn it off for their reference run. No effect on plain
  /// RunChase (which has no goal to prune toward).
  bool prune_to_goal = true;
  /// Test-only hook (rbda_fuzz --inject-bug=overprune): deliberately drop
  /// one relevant relation from the computed set so the
  /// goal-pruned-vs-full checker can prove it catches unsound pruning.
  bool inject_overprune_for_testing = false;
  /// Test-only hook (rbda_fuzz --inject-bug=stale-goal): the engine's goal
  /// matchers stop re-checking unmatched goal components after the first
  /// round (logic/homomorphism.h), so the linear-vs-generic checker can
  /// prove it catches a missed goal.
  bool inject_stale_goal_for_testing = false;
  /// Set internally by the containment engines when prune_to_goal is on:
  /// the relevance bitset (indexed by RelationId) the chase restricts
  /// firing to. Null = fire everything. Not an input — callers leave it
  /// null; the engines derive it from (goal, Σ).
  const std::vector<bool>* relevant_relations = nullptr;
};

enum class ChaseStatus {
  kCompleted,       // no active triggers remain
  kBudgetExceeded,  // ran out of budget (see ChaseResult::exhausted)
  kFdConflict,      // an EGD step tried to merge two distinct constants
};

/// Which budget a kBudgetExceeded run actually tripped. Rounds and facts
/// call for different tuning (deeper recursion vs. wider breadth), so the
/// result distinguishes them.
enum class ChaseExhausted {
  kNone,    // status != kBudgetExceeded
  kRounds,  // hit ChaseOptions::max_rounds (a linear check's depth bound)
  kFacts,   // hit ChaseOptions::max_facts
};

const char* ChaseExhaustedName(ChaseExhausted e);

/// One fired TGD trigger, for proof traces.
struct ChaseStep {
  size_t tgd_index = 0;        // into the ConstraintSet's tgds
  Substitution trigger;        // body homomorphism
  std::vector<Fact> added;     // facts created by this firing
  uint64_t round = 0;
};

struct ChaseResult {
  ChaseStatus status = ChaseStatus::kCompleted;
  ChaseExhausted exhausted = ChaseExhausted::kNone;  // set iff budget trip
  Instance instance;
  uint64_t rounds = 0;
  uint64_t tgd_steps = 0;
  uint64_t egd_merges = 0;
  uint64_t goal_checks = 0;  // goal homomorphism checks (RunChaseUntil*)
  std::vector<ChaseStep> trace;  // only if options.record_trace
};

/// Runs the restricted chase of `start` with `constraints` (and optional
/// cardinality rules). `universe` mints the fresh nulls.
ChaseResult RunChase(const Instance& start, const ConstraintSet& constraints,
                     Universe* universe, const ChaseOptions& options = {},
                     const std::vector<CardinalityRule>& cardinality_rules = {});

/// Runs the chase and additionally stops (successfully) as soon as `goal`
/// holds, checking after every round. Sets `*goal_reached` accordingly.
class ConjunctiveQuery;  // from logic; full include in the .cc
ChaseResult RunChaseUntil(const Instance& start,
                          const ConstraintSet& constraints,
                          const std::vector<Atom>& goal_atoms,
                          Universe* universe, bool* goal_reached,
                          const ChaseOptions& options = {},
                          const std::vector<CardinalityRule>& cardinality_rules = {});

/// Disjunctive-goal variant over separate TGD and FD lists: stops as soon
/// as ANY of the goals holds (UCQ right-hand sides). The containment
/// driver's entry; ChaseStep::tgd_index indexes `tgds`.
ChaseResult RunChaseUntilAny(
    const Instance& start, const std::vector<Tgd>& tgds,
    const std::vector<Fd>& fds, const std::vector<std::vector<Atom>>& goals,
    Universe* universe, bool* goal_reached, const ChaseOptions& options = {},
    const std::vector<CardinalityRule>& cardinality_rules = {});

/// RunChaseUntilAny in frontier rounds (see the top of this file), so
/// round k is derivation level k and max_rounds bounds the depth. Every
/// TGD in `tgds` must have one body atom (checked). The Johnson–Klug
/// tier's entry.
ChaseResult RunFrontierChaseUntilAny(
    const Instance& start, const std::vector<Tgd>& tgds,
    const std::vector<std::vector<Atom>>& goals, Universe* universe,
    bool* goal_reached, const ChaseOptions& options = {});

}  // namespace rbda

#endif  // RBDA_CHASE_CHASE_H_
