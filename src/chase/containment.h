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
// Both engines are goal-directed by default (ChaseOptions::prune_to_goal,
// chase/relevance.h): constraints that cannot contribute to deriving the
// goal — nor to any EGD — are skipped, and a relation-signature prefilter
// answers kNotContained without chasing when the goal's relations are not
// even signature-reachable from the start instance. Pruned and unpruned
// runs agree on every definite verdict (the pruned run may be MORE
// definite where the full chase exhausts its budget). Observe via
// containment.prune.{checks,constraints_pruned,prefilter_hits}; disable
// via --prune=off/RBDA_PRUNE.
//
// All three front ends count into containment.checks and
// containment.check_us, open a span (containment.check,
// containment.check.linear, containment.check.ucq) and leave one
// QueryProfiler record per call.
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
/// every disjunct of Q entails some disjunct of Q' under Σ.
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
