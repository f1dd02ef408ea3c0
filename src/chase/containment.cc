#include "chase/containment.h"

#include <algorithm>

#include "chase/relevance.h"
#include "chase/trigger_plan.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace rbda {

namespace {

struct ContainmentMetrics {
  Counter* checks;
  Counter* checks_linear;
  Counter* hom_checks;
  Counter* hom_checks_ok;
  Counter* activeness_checks;
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
  // The linear engine bypasses chase.cc's Engine, so it feeds the shared
  // chase.* counters itself (the registry hands back the same handles).
  Counter* chase_rounds;
  Counter* chase_triggers_tgd;
  Counter* chase_facts_created;
  Counter* chase_exhausted_facts;
  Counter* chase_exhausted_rounds;
};

const ContainmentMetrics& Metrics() {
  static const ContainmentMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ContainmentMetrics{
        r.GetCounter("containment.checks"),
        r.GetCounter("containment.checks.linear"),
        r.GetCounter("containment.hom_checks"),
        r.GetCounter("containment.hom_checks.succeeded"),
        r.GetCounter("containment.activeness_checks"),
        r.GetDistribution("containment.check_us"),
        r.GetDistribution("containment.linear.depth"),
        r.GetCounter("containment.prune.checks"),
        r.GetCounter("containment.prune.constraints_pruned"),
        r.GetCounter("containment.prune.prefilter_hits"),
        r.GetCounter("containment.prune.countermodel_hits"),
        r.GetCounter("chase.rounds"),
        r.GetCounter("chase.triggers.tgd"),
        r.GetCounter("chase.facts_created"),
        r.GetCounter("chase.exhausted.facts"),
        r.GetCounter("chase.exhausted.rounds"),
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
// FDs and cardinality rules. `engine_tier` decides what the refutation
// tiers leave open; it receives the relevance bitset, null when pruning
// is off. Only this function counts, times, traces and profiles a check.
template <typename EngineTier>
ContainmentOutcome RunTiers(const char* span_name, const Instance& start,
                            const std::vector<std::vector<Atom>>& goals,
                            const std::vector<Tgd>& tgds,
                            const std::vector<Fd>& fds,
                            const std::vector<CardinalityRule>& rules,
                            Universe* universe, const ChaseOptions& options,
                            const EngineTier& engine_tier) {
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
    out = engine_tier(relevant);
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

// The tiers with the generic chase as the engine tier: chase `start`
// until any goal holds.
ContainmentOutcome CheckGeneric(const char* span_name, const Instance& start,
                                const std::vector<std::vector<Atom>>& goals,
                                const ConstraintSet& sigma, Universe* universe,
                                const ChaseOptions& options,
                                const std::vector<CardinalityRule>& rules) {
  return RunTiers(
      span_name, start, goals, sigma.tgds, sigma.fds, rules, universe,
      options, [&](const std::vector<bool>* relevant) {
        ChaseOptions chase_options = options;
        chase_options.relevant_relations = relevant;
        ContainmentOutcome out;
        bool goal_reached = false;
        out.chase = RunChaseUntilAny(start, sigma, goals, universe,
                                     &goal_reached, chase_options, rules);
        if (goal_reached || out.chase.status == ChaseStatus::kFdConflict) {
          // On a conflict no instance satisfies Q together with Σ, so the
          // containment holds vacuously.
          out.verdict = ContainmentVerdict::kContained;
        } else if (out.chase.status == ChaseStatus::kCompleted) {
          out.verdict = ContainmentVerdict::kNotContained;
        } else {
          out.verdict = ContainmentVerdict::kUnknown;
        }
        return out;
      });
}

// The Johnson–Klug tier: a depth-bounded chase of `start` under the
// relevance-enabled linear TGDs (all of them when `relevant` is null).
ContainmentOutcome RunJohnsonKlug(const Instance& start,
                                  const std::vector<Atom>& goal,
                                  const std::vector<Tgd>& linear_tgds,
                                  const std::vector<bool>* relevant,
                                  Universe* universe, uint64_t max_depth,
                                  uint64_t max_facts,
                                  const ChaseOptions& options) {
  ContainmentOutcome out;
  Instance& inst = out.chase.instance;

  // Breadth-first by depth level: `frontier` holds the rows created at the
  // current depth; triggers are fired on frontier rows only (each linear
  // TGD has a single body atom, so every trigger is rooted at one fact).
  // The instance is append-only, so the row views stay valid.
  // A row-id-cap overflow anywhere in the linear chase degrades the check
  // to kUnknown (a budget-style outcome) instead of aborting the process —
  // the daemon serves the request as incomplete and stays up.
  bool row_ids_exhausted = false;
  std::vector<FactRef> frontier;
  start.ForEachFactUntil([&](FactRef f) {
    bool inserted = false;
    if (!inst.TryAddRow(f.relation(), f.args(), &inserted).ok()) {
      row_ids_exhausted = true;
      return false;
    }
    if (inserted) {
      FactRange rows = inst.FactsOf(f.relation());
      frontier.push_back(rows[rows.size() - 1]);
    }
    return true;
  });

  // Delta-restricted when `delta` is non-null: the pre-delta state was
  // already goal-checked, and the linear instance is append-only (no EGD
  // rebuilds), so marks stay valid and only homomorphisms touching the
  // depth's new facts can newly satisfy the goal.
  GoalMatcher matcher(goal, options.inject_stale_goal_for_testing);
  auto goal_holds = [&](const Instance::DeltaMark* delta) {
    Metrics().hom_checks->Increment();
    ++out.chase.goal_checks;
    bool found = matcher.Holds(inst, delta);
    if (found) Metrics().hom_checks_ok->Increment();
    return found;
  };

  auto finish = [&](ContainmentVerdict verdict) {
    out.verdict = verdict;
    return std::move(out);
  };

  if (row_ids_exhausted) {
    out.chase.status = ChaseStatus::kBudgetExceeded;
    out.chase.exhausted = ChaseExhausted::kFacts;
    return finish(ContainmentVerdict::kUnknown);
  }

  if (goal_holds(nullptr)) {
    return finish(ContainmentVerdict::kContained);
  }

  // The trigger plan: each enabled TGD compiled once, indexed by its body
  // relation in TGD order (the order the chase tries them in).
  std::vector<CompiledTgd> compiled;
  std::vector<std::vector<uint32_t>> by_relation;
  uint32_t num_slots = 0;
  for (const Tgd& tgd : linear_tgds) {
    if (relevant != nullptr && !TgdIsRelevant(tgd, *relevant)) continue;
    const CompiledTgd& c = compiled.emplace_back(tgd);
    if (c.body_relation() >= by_relation.size()) {
      by_relation.resize(c.body_relation() + 1);
    }
    by_relation[c.body_relation()].push_back(
        static_cast<uint32_t>(compiled.size() - 1));
    num_slots = std::max(num_slots, c.num_slots());
  }
  std::vector<Term> slots(num_slots);
  std::vector<Term> row;

  for (uint64_t depth = 1; depth <= max_depth && !frontier.empty(); ++depth) {
    out.depth_reached = depth;
    // Everything below the mark was goal-checked after the previous depth
    // (or initially), so the post-depth check can be delta-restricted.
    Instance::DeltaMark depth_mark = inst.Mark();
    std::vector<FactRef> next;
    for (FactRef fact : frontier) {
      if (row_ids_exhausted) break;
      if (fact.relation() >= by_relation.size()) continue;
      for (uint32_t ci : by_relation[fact.relation()]) {
        const CompiledTgd& c = compiled[ci];
        if (!c.MatchBody(fact, slots.data())) continue;
        Metrics().activeness_checks->Increment();
        if (c.HasWitness(inst, slots.data(), &row)) continue;  // not active
        size_t before = next.size();
        if (!c.Fire(&inst, universe, slots.data(), &row, &next)) {
          row_ids_exhausted = true;  // degrade below
          break;
        }
        ++out.chase.tgd_steps;
        Metrics().chase_triggers_tgd->Increment();
        Metrics().chase_facts_created->Increment(next.size() - before);
      }
    }
    out.chase.rounds = depth;
    Metrics().chase_rounds->Increment();
    if (TraceEnabled()) {
      TraceEventRecord("chase.round.linear",
                       {{"depth", static_cast<int64_t>(depth)},
                        {"frontier", static_cast<int64_t>(next.size())},
                        {"facts", static_cast<int64_t>(inst.NumFacts())}});
    }
    if (goal_holds(inst.MarkValid(depth_mark) ? &depth_mark : nullptr)) {
      return finish(ContainmentVerdict::kContained);
    }
    if (row_ids_exhausted || inst.NumFacts() > max_facts) {
      out.chase.status = ChaseStatus::kBudgetExceeded;
      out.chase.exhausted = ChaseExhausted::kFacts;
      Metrics().chase_exhausted_facts->Increment();
      return finish(ContainmentVerdict::kUnknown);
    }
    frontier = std::move(next);
  }

  // Empty frontier: the chase terminated — exact answer. Otherwise the
  // depth bound stopped it: the verdict stays kNotContained, which is
  // complete by the Johnson–Klug argument only when max_depth is the JK
  // bound for this constraint set, so the run reports the rounds budget
  // and the caller decides.
  if (frontier.empty()) {
    out.chase.status = ChaseStatus::kCompleted;
  } else {
    out.chase.status = ChaseStatus::kBudgetExceeded;
    out.chase.exhausted = ChaseExhausted::kRounds;
    Metrics().chase_exhausted_rounds->Increment();
  }
  return finish(ContainmentVerdict::kNotContained);
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
  return CheckGeneric("containment.check", start, {goal}, sigma, universe,
                      options, cardinality_rules);
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
    ContainmentOutcome one =
        CheckGeneric("containment.check.ucq", cq.CanonicalDatabase(), goals,
                     sigma, universe, options, {});
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
  ContainmentOutcome out = RunTiers(
      "containment.check.linear", start, {goal}, linear_tgds, {}, {},
      universe, options, [&](const std::vector<bool>* relevant) {
        return RunJohnsonKlug(start, goal, linear_tgds, relevant, universe,
                              max_depth, max_facts, options);
      });
  Metrics().linear_depth->Record(out.depth_reached);
  return out;
}

// A no-op kept for perfbench's two callers (see the header).
void ClearContainmentCache() {}

}  // namespace rbda
