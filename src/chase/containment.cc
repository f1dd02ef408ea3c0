#include "chase/containment.h"

#include <algorithm>

#include "chase/relevance.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace rbda {

namespace {

struct ContainmentMetrics {
  Counter* checks;
  Counter* checks_linear;
  Distribution* check_us;
  Distribution* linear_depth;
  // Goal-directed pruning (chase/relevance.h): checks that ran with
  // pruning on, total constraints the relevance analysis dropped, and
  // checks the signature prefilter answered without chasing.
  Counter* prune_checks;
  Counter* prune_constraints;
  Counter* prune_prefilter_hits;
  // Checks answered by the witness-reuse countermodel (relevance.h):
  // a finite model refuting the goal without running the chase.
  Counter* prune_countermodel_hits;
};

const ContainmentMetrics& Metrics() {
  static const ContainmentMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ContainmentMetrics{
        r.GetCounter("containment.checks"),
        r.GetCounter("containment.checks.linear"),
        r.GetDistribution("containment.check_us"),
        r.GetDistribution("containment.linear.depth"),
        r.GetCounter("containment.prune.checks"),
        r.GetCounter("containment.prune.constraints_pruned"),
        r.GetCounter("containment.prune.prefilter_hits"),
        r.GetCounter("containment.prune.countermodel_hits"),
    };
  }();
  return m;
}

const char* VerdictName(ContainmentVerdict v) {
  switch (v) {
    case ContainmentVerdict::kContained:
      return "contained";
    case ContainmentVerdict::kNotContained:
      return "not_contained";
    case ContainmentVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

// The one tier sequence behind every front end (see the header): the
// check holds when any of `goals` follows from `start` under the TGDs,
// FDs and cardinality rules. The engine tier chases under `options`. With
// `depth_bounded` (the Johnson–Klug tier: one-body-atom TGDs only) it runs
// frontier rounds, so a round is a derivation level, and a chase the
// rounds budget stops still reads kNotContained: a decision only when
// max_rounds is the JK bound, which the caller knows. Only this function
// counts, times, traces and profiles a check.
ContainmentOutcome RunTiers(const char* span_name, const Instance& start,
                            const std::vector<std::vector<Atom>>& goals,
                            const std::vector<Tgd>& tgds,
                            const std::vector<Fd>& fds,
                            const std::vector<CardinalityRule>& rules,
                            Universe* universe, ChaseOptions options,
                            bool depth_bounded) {
  Metrics().checks->Increment();
  ScopedTimer timer(Metrics().check_us);
  TraceSpan span(span_name);

  // Tier 1: the relations backward-reachable from the goals.
  RelevanceResult relevance;
  const std::vector<bool>* relevant = nullptr;
  if (options.prune_to_goal) {
    relevance =
        ComputeRelevance(goals, tgds, fds, rules,
                         universe != nullptr ? universe->NumRelations() : 0,
                         options.inject_overprune_for_testing);
    relevant = &relevance.relevant_relations;
    Metrics().prune_checks->Increment();
    if (relevance.PrunedConstraints() > 0) {
      Metrics().prune_constraints->Increment(relevance.PrunedConstraints());
    }
  }

  // Tiers 2 and 3 can only answer kNotContained, so they need Σ free of
  // FDs: a conflict would make the containment vacuously true, which
  // neither sees. The signature prefilter abstracts the relevance-enabled
  // constraints to relation names; the countermodel models the FULL set,
  // which keeps its refutation sound even under an overprune injection.
  const char* refuted_by = nullptr;
  if (relevant != nullptr && fds.empty()) {
    std::vector<bool> closure =
        SignatureClosure(start, tgds, rules, *relevant);
    if (std::none_of(goals.begin(), goals.end(),
                     [&closure](const std::vector<Atom>& goal) {
                       return GoalWithinSignature(goal, closure);
                     })) {
      refuted_by = "prefilter";
      Metrics().prune_prefilter_hits->Increment();
    } else if (CounterModelRefutesGoals(start, goals, tgds, rules, universe)
                   .has_value()) {
      refuted_by = "countermodel";
      Metrics().prune_countermodel_hits->Increment();
    }
  }

  ContainmentOutcome out;
  if (refuted_by != nullptr) {
    out.verdict = ContainmentVerdict::kNotContained;
    out.chase.status = ChaseStatus::kCompleted;
    out.chase.instance = start;
  } else {
    // Tier 4: the chase, restricted to the relevance-enabled constraints.
    options.relevant_relations = relevant;
    bool goal_reached = false;
    out.chase = depth_bounded
                    ? RunFrontierChaseUntilAny(start, tgds, goals, universe,
                                               &goal_reached, options)
                    : RunChaseUntilAny(start, tgds, fds, goals, universe,
                                       &goal_reached, options, rules);
    if (goal_reached || out.chase.status == ChaseStatus::kFdConflict) {
      // On a conflict no instance satisfies Q together with Σ, so the
      // containment holds vacuously.
      out.verdict = ContainmentVerdict::kContained;
    } else if (out.chase.status == ChaseStatus::kCompleted ||
               (depth_bounded &&
                out.chase.exhausted == ChaseExhausted::kRounds)) {
      out.verdict = ContainmentVerdict::kNotContained;
    } else {
      out.verdict = ContainmentVerdict::kUnknown;
    }
  }

  QueryProfiler::Default().RecordCheck(ContainmentCheckRecord{
      "",
      goals.empty() || goals[0].empty() || universe == nullptr
          ? ""
          : universe->RelationName(goals[0][0].relation),
      timer.ElapsedMicros(), out.chase.rounds, out.chase.instance.NumFacts(),
      out.chase.goal_checks, relevance.PrunedConstraints()});
  if (span.active()) {
    span.AddStr("verdict", VerdictName(out.verdict));
    span.AddInt("rounds", static_cast<int64_t>(out.chase.rounds));
    span.AddInt("facts",
                static_cast<int64_t>(out.chase.instance.NumFacts()));
    span.AddInt("pruned_constraints",
                static_cast<int64_t>(relevance.PrunedConstraints()));
    if (refuted_by != nullptr) span.AddStr(refuted_by, "hit");
  }
  return out;
}

}  // namespace

ContainmentOutcome CheckContainment(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  return CheckContainmentFrom(q.CanonicalDatabase(), q_prime.atoms(), sigma,
                              universe, options, cardinality_rules);
}

ContainmentOutcome CheckContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const ConstraintSet& sigma, Universe* universe,
    const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  return RunTiers("containment.check", start, {goal}, sigma.tgds, sigma.fds,
                  cardinality_rules, universe, options,
                  /*depth_bounded=*/false);
}

ContainmentOutcome CheckUcqContainment(const UnionQuery& q,
                                       const UnionQuery& q_prime,
                                       const ConstraintSet& sigma,
                                       Universe* universe,
                                       const ChaseOptions& options) {
  std::vector<std::vector<Atom>> goals;
  for (const ConjunctiveQuery& cq : q_prime.disjuncts()) {
    goals.push_back(cq.atoms());
  }
  // One check per disjunct of Q, any disjunct of Q' satisfying it.
  ContainmentOutcome overall;
  overall.verdict = ContainmentVerdict::kContained;  // empty Q is contained
  for (const ConjunctiveQuery& cq : q.disjuncts()) {
    ContainmentOutcome one = RunTiers(
        "containment.check.ucq", cq.CanonicalDatabase(), goals, sigma.tgds,
        sigma.fds, {}, universe, options, /*depth_bounded=*/false);
    // A definite counterexample disjunct settles the whole containment.
    if (one.verdict == ContainmentVerdict::kNotContained) return one;
    if (one.verdict == ContainmentVerdict::kUnknown) {
      overall.verdict = ContainmentVerdict::kUnknown;
    }
    overall.chase = std::move(one.chase);
  }
  return overall;
}

uint64_t JohnsonKlugDepthBound(size_t goal_atoms, size_t sigma_bounded,
                               size_t sigma_acyclic, size_t arity,
                               size_t width) {
  // Lemma E.6: the path between a match element and its image parent has
  // length at most |Σ1| * m^(w+1); with an acyclic part Σ2 the path gains
  // at most |Σ2| extra edges (Prop 5.6). A tight match of a query with k
  // atoms therefore sits at depth at most k * (that bound). We use
  // max(arity, 2) and max(goal_atoms, 1) so degenerate inputs keep a
  // positive bound.
  uint64_t m = std::max<uint64_t>(arity, 2);
  uint64_t per_hop = 1;
  for (size_t i = 0; i < width + 1; ++i) {
    // Saturating power to avoid overflow on adversarial inputs.
    if (per_hop > (1ULL << 40) / m) {
      per_hop = 1ULL << 40;
      break;
    }
    per_hop *= m;
  }
  uint64_t path = std::max<uint64_t>(sigma_bounded, 1) * per_hop +
                  sigma_acyclic;
  return std::max<uint64_t>(goal_atoms, 1) * path;
}

ContainmentOutcome CheckLinearContainment(const ConjunctiveQuery& q,
                                          const ConjunctiveQuery& q_prime,
                                          const std::vector<Tgd>& linear_tgds,
                                          Universe* universe,
                                          uint64_t max_depth,
                                          uint64_t max_facts,
                                          const ChaseOptions& options) {
  return CheckLinearContainmentFrom(q.CanonicalDatabase(), q_prime.atoms(),
                                    linear_tgds, universe, max_depth,
                                    max_facts, options);
}

ContainmentOutcome CheckLinearContainmentFrom(
    const Instance& start, const std::vector<Atom>& goal,
    const std::vector<Tgd>& linear_tgds, Universe* universe,
    uint64_t max_depth, uint64_t max_facts, const ChaseOptions& options) {
  for (const Tgd& tgd : linear_tgds) {
    RBDA_CHECK(tgd.IsLinear());
  }
  Metrics().checks_linear->Increment();
  ChaseOptions chase_options = options;
  chase_options.max_rounds = max_depth;
  chase_options.max_facts = max_facts;
  ContainmentOutcome out = RunTiers(
      "containment.check.linear", start, {goal}, linear_tgds, {}, {},
      universe, chase_options, /*depth_bounded=*/true);
  Metrics().linear_depth->Record(out.chase.rounds);
  return out;
}

// A no-op kept for perfbench's two callers (see the header).
void ClearContainmentCache() {}

}  // namespace rbda
