#include "core/answerability.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "constraints/fd_reasoning.h"
#include "constraints/uid_reasoning.h"
#include "core/linearization.h"
#include "core/simplification.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace rbda {

const char* AnswerabilityName(Answerability a) {
  switch (a) {
    case Answerability::kAnswerable:
      return "answerable";
    case Answerability::kNotAnswerable:
      return "not-answerable";
    case Answerability::kUnknown:
      return "unknown";
  }
  return "?";
}

namespace {

// Per-stage timing distributions and decision counters (namespace
// "answerability.*", docs/OBSERVABILITY.md).
struct StageMetrics {
  Counter* decisions;
  Counter* decisions_complete;
  Distribution* decide_us;
  Distribution* simplification_us;
  Distribution* reduction_us;
  Distribution* containment_us;
};

const StageMetrics& Stages() {
  static const StageMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return StageMetrics{
        r.GetCounter("answerability.decisions"),
        r.GetCounter("answerability.decisions.complete"),
        r.GetDistribution("answerability.decide_us"),
        r.GetDistribution("answerability.simplification_us"),
        r.GetDistribution("answerability.reduction_us"),
        r.GetDistribution("answerability.containment_us"),
    };
  }();
  return m;
}

// Runs `fn` with its wall time recorded in `dist`.
template <typename Fn>
auto TimedStage(Distribution* dist, Fn&& fn) {
  ScopedTimer timer(dist);
  return fn();
}

Answerability FromVerdict(ContainmentVerdict v) {
  switch (v) {
    case ContainmentVerdict::kContained:
      return Answerability::kAnswerable;
    case ContainmentVerdict::kNotContained:
      return Answerability::kNotAnswerable;
    case ContainmentVerdict::kUnknown:
      return Answerability::kUnknown;
  }
  return Answerability::kUnknown;
}

void FillStats(Decision* d, const ContainmentOutcome& outcome) {
  d->chase_rounds = outcome.chase.rounds;
  d->chase_facts = outcome.chase.instance.NumFacts();
  d->tgd_steps = outcome.chase.tgd_steps;
  d->exhausted = outcome.chase.exhausted;
}

// Generic pipeline: build the AMonDet reduction over `work` and chase.
StatusOr<Decision> GenericPipeline(const ServiceSchema& work,
                                   const ConjunctiveQuery& q,
                                   const TermSet& accessible_constants,
                                   const ReductionOptions& red_opts,
                                   const DecisionOptions& options,
                                   std::string procedure) {
  StatusOr<AmonDetReduction> red = TimedStage(Stages().reduction_us, [&] {
    return BuildAmonDetReduction(work, q, red_opts, &accessible_constants);
  });
  RBDA_RETURN_IF_ERROR(red.status());
  Universe* universe = const_cast<Universe*>(&work.universe());
  ContainmentOutcome outcome = TimedStage(Stages().containment_us, [&] {
    return CheckContainmentFrom(red->start, red->q_prime.atoms(), red->gamma,
                                universe, options.chase,
                                red->cardinality_rules);
  });
  Decision d;
  d.procedure = std::move(procedure);
  d.verdict = FromVerdict(outcome.verdict);
  d.complete = outcome.verdict != ContainmentVerdict::kUnknown;
  d.gamma_size = red->gamma.tgds.size();
  FillStats(&d, outcome);
  return d;
}

// Applies the FDs to the canonical database of q and rebuilds a minimized
// query (the Thm 7.2 pre-step).
ConjunctiveQuery MinimizeUnderFds(const ConjunctiveQuery& q,
                                  const std::vector<Fd>& fds,
                                  Universe* universe) {
  ConstraintSet fds_only;
  fds_only.fds = fds;
  ChaseResult result =
      RunChase(q.CanonicalDatabase(), fds_only, universe, ChaseOptions{});
  if (result.status != ChaseStatus::kCompleted) return q.Minimize();
  std::vector<Atom> atoms;
  result.instance.ForEachFact([&](FactRef f) { atoms.push_back(Fact(f)); });
  return ConjunctiveQuery(std::move(atoms), q.free_variables()).Minimize();
}

// Builds the containment problem the linear check runs on. The IDs row
// linearizes the schema and query as they are (existence-check regime).
// The UIDs+FDs row applies choice simplification (Thm 6.4), minimizes the
// query under the FDs, exports DetBy(mt) and drops the FDs (separability,
// Thm 7.2) first.
StatusOr<LinearizedProblem> Linearize(const ServiceSchema& schema,
                                      const ConjunctiveQuery& q,
                                      Fragment fragment,
                                      const TermSet& accessible_constants) {
  std::vector<LinearizedMethod> methods;
  if (fragment == Fragment::kIdsOnly) {
    for (const AccessMethod& m : schema.methods()) {
      LinearizedMethod lm;
      lm.method = &m;
      lm.kept_positions = m.input_positions;
      lm.visible_outputs = false;
      methods.push_back(std::move(lm));
    }
    return TimedStage(Stages().reduction_us, [&] {
      return LinearizeAnswerability(schema, q, methods, &accessible_constants);
    });
  }
  // Choice simplification, the FD chase that minimizes the query and the
  // DetBy(mt) exports are all one simplification stage.
  std::optional<ScopedTimer> simplification_timer(
      std::in_place, Stages().simplification_us);
  ServiceSchema separated = ChoiceSimplification(schema);
  separated.constraints().fds.clear();
  ConjunctiveQuery minimized =
      MinimizeUnderFds(q, schema.constraints().fds,
                       const_cast<Universe*>(&schema.universe()));
  for (const AccessMethod& m : separated.methods()) {
    LinearizedMethod lm;
    lm.method = &m;
    lm.kept_positions =
        DetBy(schema.constraints().fds, m.relation, m.input_positions);
    lm.visible_outputs = true;
    methods.push_back(std::move(lm));
  }
  simplification_timer.reset();
  return TimedStage(Stages().reduction_us, [&] {
    return LinearizeAnswerability(separated, minimized, methods,
                                  &accessible_constants);
  });
}

// Linear pipeline (IDs, and UIDs+FDs after separability): linearize, then
// run the depth-bounded Johnson–Klug chase.
StatusOr<Decision> LinearPipeline(const ServiceSchema& schema,
                                  const ConjunctiveQuery& q,
                                  Fragment fragment,
                                  const TermSet& accessible_constants,
                                  const DecisionOptions& options,
                                  std::string procedure) {
  StatusOr<LinearizedProblem> lin =
      Linearize(schema, q, fragment, accessible_constants);
  RBDA_RETURN_IF_ERROR(lin.status());
  Universe* universe = const_cast<Universe*>(&schema.universe());
  uint64_t depth = std::min(lin->jk_depth_bound, options.linear_depth_cap);
  ContainmentOutcome outcome = TimedStage(Stages().containment_us, [&] {
    return CheckLinearContainmentFrom(lin->start, lin->goal, lin->tgds,
                                      universe, depth,
                                      options.linear_max_facts,
                                      options.chase);
  });
  Decision d;
  d.procedure = std::move(procedure);
  d.verdict = FromVerdict(outcome.verdict);
  d.gamma_size = lin->tgds.size();
  d.depth_bound = lin->jk_depth_bound;
  FillStats(&d, outcome);
  // A kNotContained verdict is a decision when the chase either terminated
  // on its own or ran to the full JK bound; a chase the depth cap stopped
  // short of the bound reports the rounds budget instead.
  bool ran_full_bound = depth == lin->jk_depth_bound;
  bool terminated = outcome.chase.status == ChaseStatus::kCompleted;
  if (outcome.verdict == ContainmentVerdict::kNotContained) {
    d.complete = terminated || ran_full_bound;
    if (d.complete) {
      d.exhausted = ChaseExhausted::kNone;
    } else {
      d.verdict = Answerability::kUnknown;
    }
  } else {
    d.complete = outcome.verdict != ContainmentVerdict::kUnknown;
  }
  return d;
}

}  // namespace

StatusOr<LinearizedProblem> LinearizeForDecision(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const DecisionOptions& options) {
  Fragment fragment = schema.constraints().Classify();
  if (fragment != Fragment::kIdsOnly && fragment != Fragment::kUidsAndFds) {
    return Status::FailedPrecondition(
        std::string("the decider does not linearize the ") +
        FragmentName(fragment) + " fragment");
  }
  TermSet accessible_constants = options.accessible_constants.has_value()
                                     ? *options.accessible_constants
                                     : q.Constants();
  return Linearize(schema, q, fragment, accessible_constants);
}

FrozenQuery FreezeQuery(const ConjunctiveQuery& q, Universe* universe) {
  FrozenQuery out;
  out.accessible_constants = q.Constants();
  size_t i = 0;
  for (Term v : q.free_variables()) {
    if (out.freeze.count(v)) continue;
    out.freeze.emplace(
        v, universe->Constant("@frozen" + std::to_string(i++)));
  }
  ConjunctiveQuery frozen = q.Substitute(out.freeze);
  out.boolean_q = ConjunctiveQuery::Boolean(frozen.atoms());
  return out;
}

StatusOr<Decision> DecideMonotoneAnswerability(const ServiceSchema& schema,
                                               const ConjunctiveQuery& q,
                                               const DecisionOptions& options) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument(
        "DecideMonotoneAnswerability expects a Boolean CQ; use FreezeQuery "
        "for non-Boolean queries");
  }
  Stages().decisions->Increment();
  ScopedTimer decide_timer(Stages().decide_us);
  TraceSpan decide_span("decide");
  TermSet accessible_constants = options.accessible_constants.has_value()
                                     ? *options.accessible_constants
                                     : q.Constants();
  Fragment fragment = schema.constraints().Classify();
  if (decide_span.active()) {
    decide_span.AddStr("fragment", FragmentName(fragment));
  }
  // Default attribution label for the profiler's per-check records:
  // "decide#<n>:<fragment>", unless a driver already set a more specific
  // label (the CLI labels per query name).
  static std::atomic<uint64_t> decide_seq{0};
  std::optional<ScopedProfileLabel> profile_label;
  if (CurrentProfileLabel().empty()) {
    profile_label.emplace(
        "decide#" +
        std::to_string(decide_seq.fetch_add(1, std::memory_order_relaxed)) +
        ":" + FragmentName(fragment));
  }

  StatusOr<Decision> decision = Status::Internal("unset");
  if (options.force_naive) {
    ReductionOptions red;
    red.mode = ReductionMode::kNaive;
    ServiceSchema simplified =
        TimedStage(Stages().simplification_us, [&] { return ElimUB(schema); });
    decision = GenericPipeline(simplified, q, accessible_constants, red,
                               options, "naive §3 reduction (ablation)");
  } else {
    switch (fragment) {
      case Fragment::kEmpty:
      case Fragment::kFdsOnly: {
        ServiceSchema simplified = TimedStage(
            Stages().simplification_us, [&] { return FdSimplification(schema); });
        ReductionOptions red;
        red.mode = ReductionMode::kRewritten;
        decision = GenericPipeline(
            simplified, q, accessible_constants, red, options,
            "FD simplification (Thm 4.5) + terminating chase (Thm 5.2)");
        break;
      }
      case Fragment::kIdsOnly: {
        if (options.use_linearization) {
          decision = LinearPipeline(
              schema, q, fragment, accessible_constants, options,
              "existence-check (Thm 4.2) + linearization (Prop 5.5) + "
              "Johnson–Klug chase");
        } else {
          // Reference pipeline: existence-check simplification + generic
          // chase (used for the linearization crossover benchmark).
          ServiceSchema simplified =
              TimedStage(Stages().simplification_us,
                         [&] { return ExistenceCheckSimplification(schema); });
          ReductionOptions red;
          red.mode = ReductionMode::kRewritten;
          decision = GenericPipeline(
              simplified, q, accessible_constants, red, options,
              "existence-check (Thm 4.2) + generic chase");
        }
        break;
      }
      case Fragment::kUidsAndFds: {
        decision = LinearPipeline(
            schema, q, fragment, accessible_constants, options,
            "choice simplification (Thm 6.4) + separability rewriting "
            "(Thm 7.2) + linear chase");
        break;
      }
      case Fragment::kFrontierGuardedTgds:
      case Fragment::kGeneralTgds: {
        ServiceSchema choice =
            TimedStage(Stages().simplification_us,
                       [&] { return ChoiceSimplification(schema); });
        ReductionOptions red;
        red.mode = ReductionMode::kRewritten;
        decision = GenericPipeline(
            choice, q, accessible_constants, red, options,
            "choice simplification (Thm 6.3) + budgeted chase proof search "
            "(Thm 7.1 regime)");
        break;
      }
      default: {
        // IDs+FDs / mixed: no simplification theorem (open in the paper);
        // fall back to the sound-and-complete-characterization naive
        // reduction with a budgeted chase.
        ReductionOptions red;
        red.mode = ReductionMode::kNaive;
        ServiceSchema simplified = TimedStage(Stages().simplification_us,
                                              [&] { return ElimUB(schema); });
        decision = GenericPipeline(
            simplified, q, accessible_constants, red, options,
            "naive §3 reduction (no simplification theorem applies)");
        break;
      }
    }
  }
  RBDA_RETURN_IF_ERROR(decision.status());
  decision->fragment = fragment;
  if (decision->complete) Stages().decisions_complete->Increment();
  if (decide_span.active()) {
    decide_span.AddStr("verdict", AnswerabilityName(decision->verdict));
    decide_span.AddStr("procedure", decision->procedure);
    decide_span.AddInt("complete", decision->complete ? 1 : 0);
    decide_span.AddInt("chase_rounds",
                       static_cast<int64_t>(decision->chase_rounds));
    decide_span.AddInt("chase_facts",
                       static_cast<int64_t>(decision->chase_facts));
  }
  return decision;
}

StatusOr<Decision> DecideQueryAnswerability(const ServiceSchema& schema,
                                            const ConjunctiveQuery& q,
                                            const DecisionOptions& options) {
  if (q.IsBoolean()) return DecideMonotoneAnswerability(schema, q, options);
  FrozenQuery frozen =
      FreezeQuery(q, const_cast<Universe*>(&schema.universe()));
  DecisionOptions adjusted = options;
  adjusted.accessible_constants = frozen.accessible_constants;
  return DecideMonotoneAnswerability(schema, frozen.boolean_q, adjusted);
}

StatusOr<Decision> DecideFiniteMonotoneAnswerability(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const DecisionOptions& options) {
  Fragment fragment = schema.constraints().Classify();
  if (fragment != Fragment::kUidsAndFds) {
    // IDs, FDs, FGTGDs are finitely controllable (Prop 2.2): the
    // unrestricted verdict carries over.
    return DecideMonotoneAnswerability(schema, q, options);
  }
  // Cor 7.3: replace Σ by its finite closure Σ*, then decide unrestricted
  // answerability.
  std::vector<Uid> uids;
  for (const Tgd& tgd : schema.constraints().tgds) {
    std::optional<Uid> uid = UidFromTgd(tgd);
    if (!uid.has_value()) {
      return Status::FailedPrecondition("non-UID TGD in a UIDs+FDs schema");
    }
    uids.push_back(*uid);
  }
  UidFdClosure closure = FiniteClosure(uids, schema.constraints().fds,
                                       schema.universe());
  ServiceSchema finite = schema;
  finite.constraints().tgds.clear();
  for (const Uid& uid : closure.uids) {
    finite.constraints().tgds.push_back(
        UidToTgd(uid, finite.mutable_universe()));
  }
  finite.constraints().fds = closure.fds;
  StatusOr<Decision> decision =
      DecideMonotoneAnswerability(finite, q, options);
  RBDA_RETURN_IF_ERROR(decision.status());
  decision->procedure =
      "finite closure (Cor 7.3) + " + decision->procedure;
  return decision;
}

}  // namespace rbda
