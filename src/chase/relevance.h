// Goal-directed relevance analysis for the containment engines
// (DESIGN.md "Relevance-pruned chase").
//
// Exact relevance — "can constraint τ ever matter for deriving the goal?"
// — is undecidable even for access-limited Datalog ("Determining Relevant
// Relations for Datalog Queries under Access Limitations is Undecidable"),
// so this computes a sound OVER-approximation: the set of relations
// backward-reachable from the goal atoms through Σ's head→body dependency
// graph, in the style of magic-set / backward rule evaluation.
//
// Seeds: the goal's relations, plus the relation of every FD. FD relations
// must always stay live because EGD merges act on terms globally: a merge
// triggered by facts in a relation unreachable from the goal can identify
// a null with a constant that a goal match needs, and a merge of two
// distinct constants makes the containment vacuously true (kFdConflict).
// Seeding every FD relation keeps every derivation that can feed an EGD.
//
// Fixpoint: a TGD is relevant iff some head relation is relevant, and its
// body relations then become relevant; a cardinality rule is relevant iff
// its target relation is relevant, and its source relation (plus the
// accessible relation, when the rule requires accessibility) become
// relevant.
//
// Soundness of pruned verdicts (with Σ' = the relevant subset of Σ):
//  * kContained under Σ' implies kContained under Σ — every model of
//    (start, Σ) is a model of (start, Σ'), so a proof that the goal holds
//    in all models of the weaker theory carries over.
//  * A pruned chase that completes is a model of Σ' in which the goal
//    fails. Extending it with the dropped constraints adds facts only in
//    irrelevant relations (every head relation of a dropped TGD is
//    irrelevant, likewise every dropped rule's target), which can neither
//    trigger a relevant constraint nor an EGD nor extend a goal match —
//    so a counter-model of the full Σ exists and kNotContained is sound.
//  * An FD conflict forced by Σ is forced by Σ' (conflict derivations pass
//    only through relevant relations), so a pruned chase never completes
//    past a conflict the full chase would have hit.
// A pruned chase may return a definite verdict where the full chase runs
// out of budget (kUnknown): pruning increases completeness, never
// soundness risk. The goal-pruned-vs-full fuzz checker enforces this
// contract against the unpruned engines.
#ifndef RBDA_CHASE_RELEVANCE_H_
#define RBDA_CHASE_RELEVANCE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "chase/chase.h"

namespace rbda {

struct RelevanceResult {
  /// Indexed by RelationId: true = the chase may still need to derive
  /// into this relation on some path to the goal or to an EGD.
  std::vector<bool> relevant_relations;
  size_t relevant_tgds = 0;
  size_t pruned_tgds = 0;
  size_t relevant_rules = 0;
  size_t pruned_rules = 0;

  size_t PrunedConstraints() const { return pruned_tgds + pruned_rules; }
};

inline bool RelationIsRelevant(RelationId relation,
                               const std::vector<bool>& relevant) {
  return static_cast<size_t>(relation) < relevant.size() &&
         relevant[relation];
}

/// A TGD fires for a reason iff it can derive into a relevant relation.
bool TgdIsRelevant(const Tgd& tgd, const std::vector<bool>& relevant);

/// A cardinality rule matters iff its target relation is relevant.
bool CardinalityRuleIsRelevant(const CardinalityRule& rule,
                               const std::vector<bool>& relevant);

/// Backward relevance closure for a disjunction of goals (UCQ right-hand
/// sides share one closure). `num_relations` pre-sizes the bitset
/// (Universe::NumRelations()); relation ids beyond it still grow it.
/// `inject_overprune_for_testing` deliberately drops one non-seed relevant
/// relation from the final set — the rbda_fuzz --inject-bug=overprune hook
/// proving the goal-pruned-vs-full checker catches unsound pruning.
RelevanceResult ComputeRelevance(const std::vector<std::vector<Atom>>& goals,
                                 const std::vector<Tgd>& tgds,
                                 const std::vector<Fd>& fds,
                                 const std::vector<CardinalityRule>& rules,
                                 size_t num_relations,
                                 bool inject_overprune_for_testing = false);

/// Forward signature closure: the relations that can ever hold a fact in
/// any chase of `start` under the relevance-enabled subset of the
/// constraints (a TGD whose body relations are all populated populates
/// its head relations; a rule whose source — and accessible relation,
/// when required — is populated populates its target). Term identities
/// are abstracted away entirely, so membership is a necessary condition
/// only.
std::vector<bool> SignatureClosure(const Instance& start,
                                   const std::vector<Tgd>& tgds,
                                   const std::vector<CardinalityRule>& rules,
                                   const std::vector<bool>& relevant);

/// True iff every goal atom's relation is in `closure`. The signature
/// prefilter: a goal outside the closure of `start` holds in NO chase of
/// `start` under the relevance-enabled constraints, so the containment
/// driver answers kNotContained without chasing when every goal is
/// outside. CAUTION: only sound when no FD can conflict (sigma.fds empty)
/// — an FD conflict makes containment vacuously kContained, which this
/// abstraction cannot see.
bool GoalWithinSignature(const std::vector<Atom>& goal,
                         const std::vector<bool>& closure);

/// Witness-reuse countermodel: saturates a small FINITE model of
/// (tgds ∪ rules) extending `start`, giving every TGD ONE fixed witness
/// null per existential variable and every cardinality rule a fixed pool
/// of witness nulls per copy index — so the infinite chase tree folds
/// into a structure whose term count is bounded by the constraint set,
/// not by the chase depth. Returns the saturated model iff saturation
/// reached a fixpoint within `max_facts`/`max_rounds` AND none of the
/// `goals` has a homomorphism into it; std::nullopt otherwise, and at
/// once, before minting any witness null, when some goal already holds in
/// `start` (a model containing `start` cannot refute it). The model is
/// the certificate for kNotContained: a model of the full constraint set
/// containing the canonical database in which every goal fails, whatever
/// the real chase would do (ValidateCountermodel in fuzz/checkers.h
/// re-checks it without chase code). std::nullopt says nothing: the model
/// may admit spurious matches that the tree-shaped chase would not.
///
/// Every TGD runs on a compiled trigger plan (chase/trigger_plan.h) with
/// its witness nulls held in the existential slots, minted once in TGD
/// order × ExistentialVariables() order. Rounds are level-synchronous —
/// a round collects what the model as it stood at the round's start
/// derives, then adds it — and semi-naive: round 1 matches the whole
/// start instance, each later round only the bodies touching the
/// previous round's facts (an empty-body TGD therefore fires in round 1
/// only). Cardinality rules are re-evaluated in full every round.
///
/// CAUTION: only sound when no FDs/EGDs participate — EGD merges are not
/// modelled, so callers must gate on sigma.fds.empty() (the linear
/// engine has no FDs by construction). Pass the full TGD set, never a
/// relevance-pruned subset: the model must satisfy every constraint.
std::optional<Instance> CounterModelRefutesGoals(
    const Instance& start, const std::vector<std::vector<Atom>>& goals,
    const std::vector<Tgd>& tgds, const std::vector<CardinalityRule>& rules,
    Universe* universe, size_t max_facts = 4096, size_t max_rounds = 64);

}  // namespace rbda

#endif  // RBDA_CHASE_RELEVANCE_H_
