// Monotone answerability deciders (paper §5, §7) and the fragment
// dispatcher implementing Table 1.
//
// Pipelines by constraint fragment:
//   FDs (incl. no constraints) — FD simplification (Thm 4.5) + generic
//       chase: the chase terminates in polynomially many rounds, so the
//       verdict is always complete (Thm 5.2, NP).
//   IDs — existence-check regime (Thm 4.2) folded into linearization
//       (Prop 5.5 / E.5.2) + the depth-bounded Johnson–Klug linear chase
//       (EXPTIME in general, NP for bounded width — Thms 5.3 / 5.4).
//   UIDs + FDs — choice simplification (Thm 6.4), query minimization under
//       the FDs, separability rewriting exporting DetBy(mt), drop the FDs,
//       then the linear chase (Thm 7.2, EXPTIME).
//   FGTGDs / TGDs — choice simplification (Thm 6.3) + the generic chase;
//       sound always, complete when the chase terminates (Thm 7.1 gives
//       2EXPTIME decidability; our engine is its budgeted proof search).
//   anything else — the naive §3 reduction with cardinality rules; no
//       simplification theorem applies (the paper leaves IDs+FDs open).
//
// Finite monotone answerability: for UIDs+FDs the dispatcher replaces Σ by
// its CKV finite closure (Thm 7.4 / Cor 7.3); the other fragments are
// finitely controllable, so the unrestricted verdict carries over
// (Prop 2.2).
#ifndef RBDA_CORE_ANSWERABILITY_H_
#define RBDA_CORE_ANSWERABILITY_H_

#include "chase/containment.h"
#include "core/linearization.h"
#include "core/reduction.h"

namespace rbda {

enum class Answerability { kAnswerable, kNotAnswerable, kUnknown };

const char* AnswerabilityName(Answerability a);

struct DecisionOptions {
  ChaseOptions chase;               // generic engine budget
  uint64_t linear_depth_cap = 100000;  // cap on the JK depth bound
  uint64_t linear_max_facts = 500000;
  bool force_naive = false;   // ablation: always use the §3 naive reduction
  bool use_linearization = true;  // IDs: linearized vs generic engine
  /// Constants the plan may use as bindings. Unset = all constants of the
  /// query. A frozen free variable must NOT be accessible (its value is an
  /// output of the plan, not an input); DecideQueryAnswerability wires
  /// this automatically.
  std::optional<TermSet> accessible_constants;
};

struct Decision {
  Answerability verdict = Answerability::kUnknown;
  Fragment fragment = Fragment::kEmpty;
  std::string procedure;  // human-readable pipeline description
  bool complete = false;  // true when the verdict is a real decision
  /// When !complete because a chase budget tripped, which budget it was
  /// (rounds vs. facts call for different tuning).
  ChaseExhausted exhausted = ChaseExhausted::kNone;
  // Evidence / statistics.
  uint64_t chase_rounds = 0;
  uint64_t chase_facts = 0;
  uint64_t tgd_steps = 0;
  uint64_t depth_bound = 0;  // linear pipeline only
  size_t gamma_size = 0;     // number of TGDs chased
};

/// Decides monotone answerability of the Boolean CQ `q` w.r.t. `schema`.
StatusOr<Decision> DecideMonotoneAnswerability(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const DecisionOptions& options = {});

/// Non-Boolean front door: freezes the free variables to fresh
/// *non-accessible* constants (their values are plan outputs, not inputs)
/// and decides the Boolean problem.
StatusOr<Decision> DecideQueryAnswerability(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const DecisionOptions& options = {});

/// The linearized containment problem DecideMonotoneAnswerability hands
/// the Johnson–Klug check for the IDs and UIDs+FDs rows (it runs the
/// chase to min(jk_depth_bound, linear_depth_cap) rounds).
/// FailedPrecondition for the fragments the decider does not linearize.
/// The fuzz battery's linear-vs-generic checker poses it to both
/// containment front ends.
StatusOr<LinearizedProblem> LinearizeForDecision(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const DecisionOptions& options = {});

/// Finite-instance variant (Cor 7.3 for UIDs+FDs; Prop 2.2 otherwise).
StatusOr<Decision> DecideFiniteMonotoneAnswerability(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const DecisionOptions& options = {});

/// Reduces a non-Boolean CQ to the Boolean answerability problem: free
/// variables are frozen to fresh constants which are NOT accessible (an
/// answer value is an output, not something the plan may use as a binding).
struct FrozenQuery {
  ConjunctiveQuery boolean_q;
  TermSet accessible_constants;  // the original constants of q
  Substitution freeze;           // free variable -> frozen constant
};
FrozenQuery FreezeQuery(const ConjunctiveQuery& q, Universe* universe);

}  // namespace rbda

#endif  // RBDA_CORE_ANSWERABILITY_H_
