// Query containment under constraints: Q ⊆_Σ Q'.
//
// Two engines:
//  * CheckContainment — generic: chase CanonDB(Q) with Σ, test Q' after
//    every round. Sound always; complete whenever the chase terminates
//    (e.g. FDs + full TGDs, weakly-acyclic TGDs). Reports kUnknown when a
//    budget runs out before termination.
//  * CheckLinearContainment — the Johnson–Klug-style engine for *linear*
//    TGDs (single body atom): a depth-bounded breadth-first chase which is
//    sound AND complete when run to the JK depth bound for IDs / linear
//    TGDs of bounded semi-width (paper Prop 5.6 / E.8). This is the engine
//    behind the paper's NP results after linearization. Each check
//    compiles its TGDs once into trigger plans (chase/trigger_plan.h):
//    the body atom is unified directly against each frontier row,
//    activeness is a row lookup or one posting probe, nulls are minted
//    in ExistentialVariables() order, and frontiers are FactRef row views
//    into the append-only instance. No Instance, Substitution or
//    std::function is built per fact or per trigger; the chase — facts,
//    order, nulls — must stay the restricted chase a generic homomorphism
//    search over the same TGDs would run (tests/linear_chase_test.cpp
//    pins it).
//
// The generic engine's TGD rounds (chase.cc) and the witness-reuse
// countermodel tier (relevance.h) run on the same plans: every
// saturation loop behind a containment check unifies rows into slot
// arrays instead of building a Substitution per trigger.
//
// Both engines test the goal after every round through one incremental
// GoalMatcher (logic/homomorphism.h): the goal splits into connected
// components, a component stays matched once it has a match, and each
// round delta-checks only the unmatched components — so a never-matching
// component is not re-joined with the matched ones at every depth.
//
// Every front end — CheckContainment[From], CheckUcqContainment (one
// check per disjunct of Q) and CheckLinearContainment[From] — runs one
// driver, which tries the tiers in this order and stops at the first
// that decides:
//  1. Relevance closure (chase/relevance.h): the relations backward-
//     reachable from the goals. The engine tier skips every constraint
//     that cannot contribute to a goal nor to any EGD.
//  2. Signature prefilter: kNotContained when no goal's relations are
//     even signature-reachable from the start instance.
//  3. Witness-reuse countermodel: kNotContained when a finite model of
//     the full constraint set extending the start refutes every goal.
//     It declines at once when a goal already holds in the start.
//  4. The engine tier: the generic chase, or the Johnson–Klug depth loop.
// Tiers 1–3 run only in goal-directed mode (ChaseOptions::prune_to_goal,
// the default; disable via --prune=off/RBDA_PRUNE), and tiers 2–3 only
// when Σ has no FDs: a conflict would make the containment vacuously
// true, which neither sees. Pruned and unpruned runs agree on every
// definite verdict (the pruned run may be MORE definite where the full
// chase exhausts its budget). Observe via containment.prune.{checks,
// constraints_pruned,prefilter_hits,countermodel_hits}.
//
// The driver alone counts a check into containment.checks and
// containment.check_us, opens its span (containment.check,
// containment.check.linear, containment.check.ucq) and leaves one
// QueryProfiler record. Every span carries verdict, rounds, facts and
// pruned_constraints, plus prefilter or countermodel = "hit" when that
// tier decided the check.
#ifndef RBDA_CHASE_CONTAINMENT_H_
#define RBDA_CHASE_CONTAINMENT_H_

#include "chase/chase.h"
#include "logic/conjunctive_query.h"

namespace rbda {

enum class ContainmentVerdict {
  kContained,
  kNotContained,
  kUnknown,  // resource budget exhausted before the chase terminated
};

struct ContainmentOutcome {
  ContainmentVerdict verdict = ContainmentVerdict::kUnknown;
  ChaseResult chase;      // final chase state (proof when kContained)
  uint64_t depth_reached = 0;  // linear engine only
};

/// Generic containment check for Boolean CQs: Q ⊆_Σ Q'.
ContainmentOutcome CheckContainment(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options = {},
    const std::vector<CardinalityRule>& cardinality_rules = {});

/// UCQ containment: Q ⊆_Σ Q' for unions of Boolean CQs. Q is contained iff
/// every disjunct of Q entails some disjunct of Q' under Σ: one check per
/// disjunct of Q, and the first kNotContained answers at once.
ContainmentOutcome CheckUcqContainment(const UnionQuery& q,
                                       const UnionQuery& q_prime,
                                       const ConstraintSet& sigma,
                                       Universe* universe,
                                       const ChaseOptions& options = {});

/// Generic engine starting from an explicit instance (e.g. a canonical
/// database enriched with accessibility facts) instead of CanonDB(Q).
ContainmentOutcome CheckContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options = {},
    const std::vector<CardinalityRule>& cardinality_rules = {});

/// Johnson–Klug depth bound for a tight match of a query with
/// `goal_atoms` atoms under IDs / linear TGDs decomposed into a width-w
/// part of size `sigma_bounded` and an acyclic part of size
/// `sigma_acyclic`, over a signature of maximal arity `arity`
/// (paper Lemma E.6 and Prop 5.6/E.8).
uint64_t JohnsonKlugDepthBound(size_t goal_atoms, size_t sigma_bounded,
                               size_t sigma_acyclic, size_t arity,
                               size_t width);

/// Depth-bounded chase containment for linear TGDs (no FDs). Complete when
/// `max_depth` is at least the JK bound for the decomposed constraint set.
/// `max_facts` guards against breadth blowup (kUnknown if exceeded).
ContainmentOutcome CheckLinearContainment(const ConjunctiveQuery& q,
                                          const ConjunctiveQuery& q_prime,
                                          const std::vector<Tgd>& linear_tgds,
                                          Universe* universe,
                                          uint64_t max_depth,
                                          uint64_t max_facts = 500000,
                                          const ChaseOptions& options = {});

/// Depth-bounded linear engine starting from an explicit instance. Of the
/// options bag, the linear engine honors prune_to_goal and the
/// inject_*_for_testing hooks (depth/fact budgets are the explicit
/// parameters). A run the depth bound stops with a non-empty frontier
/// reports kNotContained with status kBudgetExceeded and exhausted =
/// kRounds: the verdict is a decision only when `max_depth` is the JK
/// bound.
ContainmentOutcome CheckLinearContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const std::vector<Tgd>& linear_tgds, Universe* universe,
    uint64_t max_depth, uint64_t max_facts = 500000,
    const ChaseOptions& options = {});

/// Does nothing: containment checks are not memoized. Kept only because
/// perfbench/harness.cc and perfbench/serve.cc still call it; the
/// perfbench change that drops those two calls deletes this function.
void ClearContainmentCache();

}  // namespace rbda

#endif  // RBDA_CHASE_CONTAINMENT_H_
