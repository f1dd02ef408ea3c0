// The reduction of monotone answerability to query containment (paper §3).
//
// Monotone answerability of Q w.r.t. Sch is equivalent (Thm 3.1 + Prop 3.4)
// to the containment Q ⊆_Γ Q' where Γ axiomatizes: two instances I1 (the
// unprimed relations) and I2 (the primed copies) both satisfying Σ, plus a
// common access-valid subinstance tracked through the `accessible`
// predicate and (in the naive mode) the R_Accessed copies.
//
// Two modes:
//  * kNaive — §3 verbatim, including the "∃≥j" lower-bound axioms encoded
//    as CardinalityRules for the chase. Works for arbitrary result bounds;
//    kept mainly for the ablation experiments.
//  * kRewritten — assumes every result-bounded method has bound ≤ 1 (run a
//    simplification first). Accessibility axioms are plain TGDs, inlining
//    R_Accessed as in the proof of Thm 7.2:
//      non-bounded mt:  acc(x) ∧ R(x,y) → R'(x,y) ∧ acc(y)
//      bound-1 mt:      acc(x) ∧ R(x,y) → ∃z R(x,z) ∧ R'(x,z) ∧ acc(z)
//    With `export_determined`, the bound-1 axiom also exports the positions
//    functionally determined by the inputs (the Thm 7.2 separability
//    rewriting).
#ifndef RBDA_CORE_REDUCTION_H_
#define RBDA_CORE_REDUCTION_H_

#include <map>
#include <vector>

#include "chase/chase.h"
#include "logic/conjunctive_query.h"
#include "schema/service_schema.h"

namespace rbda {

enum class ReductionMode { kNaive, kRewritten };

struct ReductionOptions {
  ReductionMode mode = ReductionMode::kRewritten;
  /// Thm 7.2: export DetBy(mt) positions in bound-1 axioms, enabling the
  /// separability argument that drops the FDs.
  bool export_determined = false;
  /// Drop the FDs of Σ and Σ' from Γ (sound after export_determined + query
  /// minimization, per Thm 7.2).
  bool drop_fds = false;
};

struct AmonDetReduction {
  ConjunctiveQuery q;        // Boolean query (input)
  ConjunctiveQuery q_prime;  // primed copy (containment goal)
  ConstraintSet gamma;       // Σ ∪ Σ' ∪ accessibility axioms
  std::vector<CardinalityRule> cardinality_rules;  // naive mode only
  Instance start;            // CanonDB(q) + accessible(c) facts
  RelationId accessible_rel = 0;
  std::map<RelationId, RelationId> primed;    // R -> R'
  std::map<RelationId, RelationId> accessed;  // R -> R_Accessed (naive)
  // Indexes into gamma.tgds of accessibility axioms, keyed by method name
  // (used by plan extraction and diagnostics).
  std::map<size_t, std::string> axiom_method;
};

/// Builds the AMonDet containment problem for a Boolean CQ. Constants of
/// `q` are treated as known to the plan (accessible); pass
/// `accessible_constants` to override (e.g. frozen free variables are NOT
/// accessible).
StatusOr<AmonDetReduction> BuildAmonDetReduction(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const ReductionOptions& options = {},
    const TermSet* accessible_constants = nullptr);

/// The primed copy of a relation (interned as "<name>@p").
RelationId PrimedRelation(Universe* universe, RelationId relation);

/// The primed copies one caller needs, each interned on first use and then
/// looked up by relation id, so priming many atoms formats each name once.
class PrimedRelations {
 public:
  explicit PrimedRelations(Universe* universe) : universe_(universe) {}
  RelationId operator()(RelationId relation);

 private:
  static constexpr RelationId kUnset = ~RelationId(0);
  Universe* universe_;
  std::vector<RelationId> ids_;  // by relation id; kUnset until interned
};

/// Variables for the rules one call emits. TGD variables are rule-scoped,
/// so all rules draw from one pool of fresh variables: body positions from
/// the front, head positions after them, which keeps a head's existential
/// variables in position order.
class RuleVariables {
 public:
  explicit RuleVariables(Universe* universe) : universe_(universe) {}
  /// Pool entries [offset, offset + n), minting those not yet made.
  std::vector<Term> Take(size_t offset, uint32_t n);

 private:
  Universe* universe_;
  std::vector<Term> pool_;
};

/// Rewrites a query / constraint set onto the primed signature.
ConjunctiveQuery PrimeQuery(PrimedRelations* primed,
                            const ConjunctiveQuery& q);
ConstraintSet PrimeConstraints(PrimedRelations* primed,
                               const ConstraintSet& sigma);

}  // namespace rbda

#endif  // RBDA_CORE_REDUCTION_H_
