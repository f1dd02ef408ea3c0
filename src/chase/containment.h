// Query containment under constraints: Q ⊆_Σ Q'.
//
// Two front ends, one chase engine (chase/chase.h):
//  * CheckContainment — generic: chase CanonDB(Q) with Σ, test Q' after
//    every round. Sound always; complete whenever the chase terminates
//    (e.g. FDs + full TGDs, weakly-acyclic TGDs). Reports kUnknown when a
//    budget runs out before termination.
//  * CheckLinearContainment — the Johnson–Klug tier for *linear* TGDs
//    (single body atom): the same engine in frontier rounds
//    (RunFrontierChaseUntilAny), with max_rounds set to a depth bound.
//    Round k then creates exactly the facts of derivation depth k, and the
//    chase is sound AND complete when run to the JK depth bound for IDs /
//    linear TGDs of bounded semi-width (paper Prop 5.6 / E.8). This is the
//    tier behind the paper's NP results after linearization. A run the
//    bound stops still reads kNotContained; the caller knows whether the
//    bound was the JK bound. tests/linear_chase_test.cpp pins the chase:
//    facts, order, nulls.
//
// Every saturation loop behind a containment check — the engine's rounds
// and the witness-reuse countermodel tier (relevance.h) — runs on compiled
// trigger plans (chase/trigger_plan.h), unifying rows into slot arrays
// instead of building a Substitution per trigger.
//
// The engine tests the goal after every round through one incremental
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
//  4. The engine tier: the chase, bounded by max_rounds (for the
//     Johnson–Klug tier, the depth bound) and max_facts.
// Tiers 1–3 run only in goal-directed mode (ChaseOptions::prune_to_goal,
// the default; tests turn it off for a reference run), and tiers 2–3 only
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
  ChaseResult chase;  // final chase state (proof when kContained)
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

/// Depth-bounded linear check starting from an explicit instance: the
/// engine runs with max_rounds = `max_depth` and max_facts = `max_facts`,
/// which override those two fields of `options`. A run the depth bound
/// stops with a non-empty frontier reports kNotContained with status
/// kBudgetExceeded and exhausted = kRounds: the verdict is a decision only
/// when `max_depth` is the JK bound. chase.rounds is the depth reached.
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
