// Linearization (paper Prop 5.5, Appendix E.3 / E.5.2, extended per G.2).
//
// Input: a schema whose TGD constraints are IDs of width w, plus access
// methods (with or without result bounds). Output: an equivalent query
// containment problem over *linear* TGDs of bounded semi-width, solvable by
// the depth-bounded Johnson–Klug chase — the engine behind the paper's
// EXPTIME (IDs) and NP (bounded-width IDs) upper bounds.
//
// Construction:
//  * Saturation — computes the derived truncated accessibility axioms
//    ("if positions P of an R-fact are accessible, so is position j"),
//    closing under the (ID) pullback, (Transitivity), and (Access) rules of
//    Appendix E.3.1, for all P with |P| ≤ w; closing any other P (the
//    initial instance's masks) applies those axioms to it.
//  * Expanded signature — relation R_P for each relation R and accessible-
//    position mask P; an R_P-fact is an R-fact whose P-positions are known
//    accessible.
//  * ΣLin rules —
//      (Lift)      R_P(u) → ∃z S_P'''(z,u)    per ID, following Cl(R,P);
//      (Transfer)  R_P(x) → R'(x)             when Cl(R,P) covers the
//                                             inputs of a non-bounded mt;
//      (RB-Transfer, E.5.2) R_P(x,y) → ∃z R'(x,z)  for result-bounded mt
//                                             (existence-check regime); or,
//      (RB-Choice, G.2-style) R_P(u) → ∃z Pair_mt(v); Pair_mt(w) → R_⊤(w);
//                  Pair_mt(w) → R'(w)         for choice-simplified bound-1
//                                             methods whose returned tuple
//                                             is fully visible (UIDs+FDs
//                                             pipeline; `v` keeps the input
//                                             and determined positions);
//      (Σ')        primed copies of the IDs.
//  * Initial instance — CanonDB(Q) closed under the derived axioms seeded
//    by the accessible constants, expanded into R_P facts, with direct
//    transfers applied to the level-0 facts.
//
// TGD variables are rule-scoped, so every rule of one call draws its
// variables from one pool (body positions first, then head positions), and
// each R_P and R' is interned once per call.
#ifndef RBDA_CORE_LINEARIZATION_H_
#define RBDA_CORE_LINEARIZATION_H_

#include <cstdint>
#include <vector>

#include "logic/conjunctive_query.h"
#include "schema/service_schema.h"

namespace rbda {

/// Accessible-position sets as bitmasks. The linearizer refuses relations
/// of arity above kMaxLinearizedArity, so every shift stays in range.
using PosMask = uint32_t;
inline constexpr uint32_t kMaxLinearizedArity = 31;

/// The linearizer refuses a schema whose relations would need more
/// position masks than this: Σ over relations R of C(arity(R), ≤ w) plus
/// R's full mask, one R_P relation each. Saturation is quadratic in that
/// count, so a wide ID otherwise runs for minutes.
inline constexpr uint64_t kMaxTrackedMasks = 4096;

/// Derived truncated accessibility axioms: Cl(R, P) = positions of R that
/// become accessible once the positions of P are, under the schema's IDs
/// and (non-result-bounded) methods.
class TruncatedSaturation {
 public:
  /// `ids` must all be IDs over relations of arity at most
  /// kMaxLinearizedArity. `w` is the saturation breadth (normally the
  /// maximum ID width).
  TruncatedSaturation(const std::vector<Tgd>& ids,
                      const std::vector<AccessMethod>& methods,
                      const Universe& universe, size_t w);

  /// Closure of an arbitrary position set of `relation` under the derived
  /// axioms and the (Access) rule.
  PosMask Closure(RelationId relation, PosMask start) const;

  /// The masks over `arity` positions with at most w bits set, plus the
  /// full mask, ascending; computed once per arity.
  const std::vector<PosMask>& SmallMasks(uint32_t arity);

 private:
  // One tracked relation: Cl(R, P) for each small mask P.
  struct Tracked {
    RelationId relation = 0;
    PosMask full = 0;
    std::vector<PosMask> premises;  // ascending
    std::vector<PosMask> closures;  // Cl(R, premises[i])
    // Input masks of the non-result-bounded methods on R.
    std::vector<PosMask> access_inputs;
  };

  void Saturate(const std::vector<Tgd>& ids);
  // The index of `relation` in tracked_, or tracked_.size() if untracked.
  size_t IndexOf(RelationId relation) const;
  PosMask Expand(const Tracked& tracked, PosMask start) const;

  std::vector<Tracked> tracked_;  // ascending relation
  std::vector<std::vector<PosMask>> small_masks_;  // by arity; empty = unset
  size_t w_;
};

/// Per-method configuration for the linearizer.
struct LinearizedMethod {
  const AccessMethod* method = nullptr;
  /// For bounded methods: head positions keeping body values (inputs, plus
  /// DetBy(mt) in the UIDs+FDs pipeline).
  std::vector<uint32_t> kept_positions;
  /// True in the choice/UIDs+FDs regime: the returned tuple is fully
  /// visible and re-enters the chase (Pair encoding). False in the
  /// existence-check regime (plain E.5.2 RB-Transfer).
  bool visible_outputs = false;
};

struct LinearizedProblem {
  std::vector<Tgd> tgds;  // all linear
  Instance start;
  std::vector<Atom> goal;        // Q' atoms
  uint64_t jk_depth_bound = 0;   // complete depth for the JK chase
  size_t num_rules_bounded = 0;  // Σ1 (width-bounded part)
  size_t num_rules_acyclic = 0;  // Σ2 (acyclic position graph)
  size_t effective_width = 0;
};

/// Builds the linearized containment problem for the Boolean CQ `q` against
/// a schema whose TGDs are all IDs. `accessible_constants` seeds the
/// accessible set (defaults to the constants of q if null).
StatusOr<LinearizedProblem> LinearizeAnswerability(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const std::vector<LinearizedMethod>& methods,
    const TermSet* accessible_constants = nullptr);

}  // namespace rbda

#endif  // RBDA_CORE_LINEARIZATION_H_
