#include "fuzz/checkers.h"

#include <algorithm>
#include <map>
#include <set>

#include "chase/certain_answers.h"
#include "chase/containment.h"
#include "chase/relevance.h"
#include "core/plan_synthesis.h"
#include "core/simplification.h"
#include "fuzz/mutators.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "parser/serializer.h"
#include "runtime/generators.h"
#include "runtime/oracle.h"
#include "runtime/schema_generators.h"

namespace rbda {

namespace {

struct FuzzCheckerMetrics {
  Counter* checkers_run;
  Counter* checkers_skipped;
  Counter* findings;
  Distribution* battery_us;
};

const FuzzCheckerMetrics& Metrics() {
  static const FuzzCheckerMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return FuzzCheckerMetrics{
        r.GetCounter("fuzz.checkers_run"),
        r.GetCounter("fuzz.checkers_skipped"),
        r.GetCounter("fuzz.findings"),
        r.GetDistribution("fuzz.battery_us"),
    };
  }();
  return m;
}

// Distinct stream tags so each checker draws from its own RNG sequence:
// adding or reordering checkers must not shift another checker's draws.
constexpr uint64_t kOracleStream = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kPlanStream = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kChaseStream = 0x94d049bb133111ebULL;
constexpr uint64_t kFaultStream = 0xda942042e4dd58b5ULL;

void AddFinding(CheckReport* report, std::string checker, std::string detail) {
  Metrics().findings->Increment();
  report->findings.push_back(Finding{std::move(checker), std::move(detail)});
}

std::string VerdictPair(const Decision& a, const Decision& b) {
  return std::string(AnswerabilityName(a.verdict)) + " vs " +
         AnswerabilityName(b.verdict);
}

/// Picks the externally-applied simplification the paper proves sound &
/// complete for the schema's fragment. Where no theorem exists (IDs+FDs,
/// mixed), ElimUB is the only transformation that is always safe
/// (Prop 3.3).
ServiceSchema SimplifyForFragment(const ServiceSchema& schema,
                                  Fragment fragment, const char** name) {
  switch (fragment) {
    case Fragment::kEmpty:
    case Fragment::kFdsOnly:
      *name = "FdSimplification";
      return FdSimplification(schema);
    case Fragment::kIdsOnly:
      *name = "ExistenceCheckSimplification";
      return ExistenceCheckSimplification(schema);
    case Fragment::kUidsAndFds:
    case Fragment::kFrontierGuardedTgds:
    case Fragment::kGeneralTgds:
      *name = "ChoiceSimplification";
      return ChoiceSimplification(schema);
    case Fragment::kIdsAndFds:
    case Fragment::kMixed:
      *name = "ElimUB";
      return ElimUB(schema);
  }
  *name = "ElimUB";
  return ElimUB(schema);
}

// The containment problem the decider's countermodel tier sees.
struct CountermodelProblem {
  Instance start;
  std::vector<Atom> goal;
  std::vector<Tgd> tgds;
  std::vector<CardinalityRule> rules;
};

// Rebuilds that problem the way DecideMonotoneAnswerability does: the
// linearized problem for IDs and UIDs+FDs, the AMonDet reduction after
// the fragment's simplification (FD simplification for the empty
// fragment, choice simplification for FGTGDs and TGDs) for the FD-free
// generic fragments.
// std::nullopt where the decider never runs the countermodel (FDs in Γ).
std::optional<CountermodelProblem> CountermodelProblemFor(
    const ServiceSchema& schema, const ConjunctiveQuery& query,
    Fragment fragment, const DecisionOptions& options) {
  if (fragment == Fragment::kIdsOnly || fragment == Fragment::kUidsAndFds) {
    StatusOr<LinearizedProblem> lin =
        LinearizeForDecision(schema, query, options);
    if (!lin.ok()) return std::nullopt;
    return CountermodelProblem{std::move(lin->start), std::move(lin->goal),
                               std::move(lin->tgds), {}};
  }
  if (fragment != Fragment::kEmpty &&
      fragment != Fragment::kFrontierGuardedTgds &&
      fragment != Fragment::kGeneralTgds) {
    return std::nullopt;
  }
  const char* simplification = nullptr;
  ServiceSchema simplified =
      SimplifyForFragment(schema, fragment, &simplification);
  TermSet accessible = options.accessible_constants.has_value()
                           ? *options.accessible_constants
                           : query.Constants();
  StatusOr<AmonDetReduction> red =
      BuildAmonDetReduction(simplified, query, {}, &accessible);
  if (!red.ok() || !red->gamma.fds.empty()) return std::nullopt;
  return CountermodelProblem{std::move(red->start), red->q_prime.atoms(),
                             std::move(red->gamma.tgds),
                             std::move(red->cardinality_rules)};
}

}  // namespace

Status ValidateCountermodel(const Instance& start,
                            const std::vector<std::vector<Atom>>& goals,
                            const std::vector<Tgd>& tgds,
                            const std::vector<CardinalityRule>& rules,
                            const Instance& model) {
  if (!start.IsSubinstanceOf(model)) {
    return Status::FailedPrecondition(
        "the model does not contain the start instance");
  }
  for (size_t i = 0; i < tgds.size(); ++i) {
    bool satisfied = true;
    ForEachHomomorphism(tgds[i].body(), model, nullptr,
                        [&](const Substitution& body) {
                          satisfied = FindHomomorphism(tgds[i].head(), model,
                                                       &body)
                                          .has_value();
                          return satisfied;
                        });
    if (!satisfied) {
      return Status::FailedPrecondition(
          "TGD #" + std::to_string(i) +
          " has a body match with no head witness");
    }
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    const CardinalityRule& rule = rules[i];
    // Distinct source and target tuples, grouped by their input values.
    using Groups = std::map<std::vector<Term>, std::set<std::vector<Term>>>;
    auto group = [&rule, &model](RelationId relation) {
      Groups out;
      for (FactRef f : model.FactsOf(relation)) {
        std::vector<Term> binding;
        for (uint32_t p : rule.input_positions) binding.push_back(f.arg(p));
        out[std::move(binding)].emplace(f.args().begin(), f.args().end());
      }
      return out;
    };
    Groups sources = group(rule.source_rel);
    Groups targets = group(rule.target_rel);
    for (const auto& [binding, matches] : sources) {
      if (rule.require_accessible &&
          !std::all_of(binding.begin(), binding.end(), [&](Term t) {
            return model.ContainsRow(rule.accessible_rel, {&t, 1});
          })) {
        continue;
      }
      size_t need = std::min<size_t>(rule.bound, matches.size());
      auto it = targets.find(binding);
      size_t have = it == targets.end() ? 0 : it->second.size();
      if (have < need) {
        return Status::FailedPrecondition(
            "cardinality rule #" + std::to_string(i) + " has " +
            std::to_string(have) + " of " + std::to_string(need) +
            " targets for an accessible binding");
      }
    }
  }
  for (size_t g = 0; g < goals.size(); ++g) {
    if (FindHomomorphism(goals[g], model).has_value()) {
      return Status::FailedPrecondition("goal #" + std::to_string(g) +
                                        " matches the model");
    }
  }
  return Status::Ok();
}

CheckerOptions::CheckerOptions() {
  decide.chase.max_rounds = 40;
  decide.chase.max_facts = 4000;
  // The JK tier's per-round goal checks scale with the instance, so its
  // worst case grows ~quadratically in the fact budget; the production
  // caps (300 / 20000) let one adversarial ID case run for minutes and
  // still end incomplete (no signal — the battery skips it). The fuzz
  // caps keep the tail of the case-time distribution in the tens of
  // milliseconds; definite verdicts under them are still definite.
  decide.linear_depth_cap = 150;
  decide.linear_max_facts = 2500;
}

bool CheckReport::Has(const std::string& name) const {
  for (const Finding& f : findings) {
    if (f.checker == name) return true;
  }
  return false;
}

ServiceSchema StripBoundsForTesting(const ServiceSchema& schema) {
  ServiceSchema out = schema;
  for (AccessMethod& m : out.mutable_methods()) {
    m.bound_kind = BoundKind::kNone;
    m.bound = 0;
  }
  return out;
}

CheckReport RunCheckerBattery(const ServiceSchema& schema,
                              const ConjunctiveQuery& query,
                              const CheckerOptions& options,
                              const Instance* seed_data) {
  ScopedTimer timer(Metrics().battery_us);
  CheckReport report;
  Universe& universe = schema.universe();
  const Fragment fragment = schema.constraints().Classify();

  auto count = [&report](bool ran) {
    if (ran) {
      ++report.checkers_run;
      Metrics().checkers_run->Increment();
    } else {
      ++report.checkers_skipped;
      Metrics().checkers_skipped->Increment();
    }
  };

  // The primary decision every cross-check compares against.
  StatusOr<Decision> primary =
      DecideMonotoneAnswerability(schema, query, options.decide);
  const bool primary_definite = primary.ok() && primary->complete;

  // --- decide-vs-naive: fragment pipeline against the §3 reduction. ---
  if (options.check_naive) {
    DecisionOptions naive_opts = options.decide;
    naive_opts.force_naive = true;
    StatusOr<Decision> naive =
        DecideMonotoneAnswerability(schema, query, naive_opts);
    bool ran = primary_definite && naive.ok() && naive->complete;
    count(ran);
    if (ran && primary->verdict != naive->verdict) {
      AddFinding(&report, "decide-vs-naive",
                 std::string(FragmentName(fragment)) + " pipeline (" +
                     primary->procedure + ") vs naive reduction: " +
                     VerdictPair(*primary, *naive));
    }
  }

  // --- goal-pruned-vs-full: relevance pruning must preserve verdicts. ---
  if (options.check_goal_pruned) {
    DecisionOptions pruned_opts = options.decide;
    pruned_opts.chase.prune_to_goal = true;
    pruned_opts.chase.inject_overprune_for_testing =
        options.inject_overprune_bug;
    DecisionOptions full_opts = options.decide;
    full_opts.chase.prune_to_goal = false;
    full_opts.chase.inject_overprune_for_testing = false;
    StatusOr<Decision> pruned =
        DecideMonotoneAnswerability(schema, query, pruned_opts);
    StatusOr<Decision> full =
        DecideMonotoneAnswerability(schema, query, full_opts);
    bool ran = pruned.ok() && pruned->complete && full.ok() && full->complete;
    count(ran);
    // Pruning is allowed to be MORE complete than the full chase (the
    // signature prefilter refutes cases whose full chase trips its
    // budget); only a definite-vs-definite disagreement is a bug.
    if (ran && pruned->verdict != full->verdict) {
      AddFinding(&report, "goal-pruned-vs-full",
                 std::string(options.inject_overprune_bug
                                 ? "overprune-injected "
                                 : "") +
                     "relevance-pruned decide disagrees with the full-Σ "
                     "decide on " +
                     FragmentName(fragment) + ": " +
                     VerdictPair(*pruned, *full));
    }
  }

  // --- linear-vs-generic: the JK check against the generic chase. ---
  if (options.check_linear_generic) {
    bool ran = false;
    StatusOr<LinearizedProblem> lin =
        LinearizeForDecision(schema, query, options.decide);
    if (lin.ok()) {
      const uint64_t depth =
          std::min(lin->jk_depth_bound, options.decide.linear_depth_cap);
      ChaseOptions linear_opts = options.decide.chase;
      linear_opts.inject_stale_goal_for_testing =
          options.inject_stale_goal_bug;
      ContainmentOutcome linear = CheckLinearContainmentFrom(
          lin->start, lin->goal, lin->tgds, &universe, depth,
          options.decide.linear_max_facts, linear_opts);
      // The generic front end runs TGD-major rounds, and with
      // use_semi_naive off its trigger enumeration and goal checks are
      // full, so it shares neither the frontier order nor the delta goal
      // checks with the Johnson–Klug side.
      ChaseOptions generic_opts = options.decide.chase;
      generic_opts.use_semi_naive = false;
      generic_opts.max_rounds = depth;
      generic_opts.max_facts = options.decide.linear_max_facts;
      ConstraintSet sigma;
      sigma.tgds = lin->tgds;
      ContainmentOutcome generic = CheckContainmentFrom(
          lin->start, lin->goal, sigma, &universe, generic_opts);
      auto definite = [](const ContainmentOutcome& o) {
        return o.verdict == ContainmentVerdict::kContained ||
               (o.verdict == ContainmentVerdict::kNotContained &&
                o.chase.status == ChaseStatus::kCompleted);
      };
      ran = definite(linear) && definite(generic);
      if (ran && linear.verdict != generic.verdict) {
        auto name = [](ContainmentVerdict v) {
          return v == ContainmentVerdict::kContained ? "contained"
                                                     : "not contained";
        };
        AddFinding(&report, "linear-vs-generic",
                   std::string(options.inject_stale_goal_bug
                                   ? "stale-goal-injected "
                                   : "") +
                       "linear check says " + name(linear.verdict) +
                       " (depth " + std::to_string(linear.chase.rounds) +
                       ") but the generic chase says " +
                       name(generic.verdict) + " (round " +
                       std::to_string(generic.chase.rounds) + ") on " +
                       FragmentName(fragment));
      }
    }
    count(ran);
  }

  // --- countermodel-certificate: every countermodel must validate. ---
  if (options.check_countermodel) {
    bool ran = false;
    std::optional<CountermodelProblem> problem =
        CountermodelProblemFor(schema, query, fragment, options.decide);
    if (problem.has_value()) {
      std::optional<Instance> model =
          CounterModelRefutesGoals(problem->start, {problem->goal},
                                   problem->tgds, problem->rules, &universe);
      if (model.has_value()) {
        ran = true;
        Status valid =
            ValidateCountermodel(problem->start, {problem->goal},
                                 problem->tgds, problem->rules, *model);
        if (!valid.ok()) {
          AddFinding(&report, "countermodel-certificate",
                     std::string(FragmentName(fragment)) +
                         " countermodel (" +
                         std::to_string(model->NumFacts()) +
                         " facts) fails validation: " + valid.message());
        }
      }
    }
    count(ran);
  }

  // --- simplification-differential: Table 1 equivalence theorems. ---
  if (options.check_simplification) {
    const char* simp_name = nullptr;
    ServiceSchema simplified =
        options.inject_simplification_bug
            ? StripBoundsForTesting(schema)
            : SimplifyForFragment(schema, fragment, &simp_name);
    if (options.inject_simplification_bug) simp_name = "StripBounds[BUG]";
    StatusOr<Decision> after =
        DecideMonotoneAnswerability(simplified, query, options.decide);
    bool ran = primary_definite && after.ok() && after->complete;
    count(ran);
    if (ran && primary->verdict != after->verdict) {
      AddFinding(&report, "simplification-differential",
                 std::string(simp_name) + " on " + FragmentName(fragment) +
                     " schema flips verdict: " + VerdictPair(*primary, *after));
    }
  }

  // --- oracle-vs-decider: a counterexample proves non-answerability. ---
  if (options.check_oracle) {
    CounterexampleSearchOptions search;
    search.attempts = options.oracle_attempts;
    search.seed = options.seed ^ kOracleStream;
    search.chase.max_rounds = 30;
    search.chase.max_facts = 300;
    std::optional<AMonDetCounterexample> ce =
        SearchAMonDetCounterexample(schema, query, search);
    count(primary_definite);
    if (primary_definite && ce.has_value() &&
        primary->verdict == Answerability::kAnswerable) {
      AddFinding(&report, "oracle-vs-decider",
                 "decider says answerable (complete, " + primary->procedure +
                     ") but the AMonDet search found a counterexample "
                     "(i1 has " +
                     std::to_string(ce->i1.NumFacts()) + " facts, accessed " +
                     std::to_string(ce->accessed.NumFacts()) + ")");
    }
  }

  // --- plan-vs-decider: synthesized plans must never over-answer. ---
  if (options.check_plan) {
    bool ran = false;
    if (primary_definite && primary->verdict == Answerability::kAnswerable) {
      SynthesisOptions syn;
      syn.access_rounds = std::clamp<size_t>(primary->chase_rounds + 1, 3, 6);
      StatusOr<Plan> plan = SynthesizeUniversalPlan(schema, query, syn);
      if (plan.ok()) {
        Rng rng(options.seed ^ kPlanStream);
        ChaseOptions model_chase;
        model_chase.max_rounds = 40;
        model_chase.max_facts = 4000;
        for (size_t t = 0; t < options.validation_trials; ++t) {
          Instance seed_inst = RandomInstance(&universe, schema.relations(),
                                              /*domain_size=*/4,
                                              /*num_facts=*/6, &rng);
          seed_inst.UnionWith(GroundQuery(query, &universe, &rng));
          StatusOr<Instance> data = CompleteToModel(
              seed_inst, schema.constraints(), &universe, model_chase);
          if (!data.ok()) continue;
          ran = true;
          PlanValidation v =
              ValidatePlan(schema, *plan, query, *data,
                           /*num_random_selections=*/4, options.seed + t);
          // Missing answers can be an artifact of the truncated saturation
          // depth; extra answers or execution errors never are.
          if (!v.answers && v.mismatch != PlanMismatch::kMissingAnswers) {
            AddFinding(&report, "plan-vs-decider",
                       "universal plan for answerable query is unsound "
                       "(trial " +
                           std::to_string(t) + "): " + v.failure);
            break;
          }
        }
      }
    }
    count(ran);
  }

  // --- fault-injection: degraded runs under-approximate, never over. ---
  if (options.check_fault_injection) {
    bool ran = false;
    // The soundness property needs only *a* plan, not an answerable query:
    // whatever the universal plan computes fault-free, its degraded runs
    // must stay inside it. So synthesize unconditionally (no chase).
    StatusOr<Plan> plan = SynthesizeUniversalPlan(schema, query);
    if (plan.ok() && plan->IsMonotone()) {
      Rng rng(options.seed ^ kFaultStream);
      Instance data = RandomInstance(&universe, schema.relations(),
                                     /*domain_size=*/4, /*num_facts=*/10,
                                     &rng);
      if (seed_data != nullptr) data.UnionWith(*seed_data);
      // One deterministic backend shared by every run below, so identical
      // (method, binding) calls answer identically and outputs compare.
      std::unique_ptr<AccessSelector> selector =
          MakeSelector(SelectionPolicy::kFirstK);
      InstanceService backend(data, selector.get());

      VirtualClock ref_clock;
      PlanExecutor ref_exec(schema, &backend, &ref_clock);
      StatusOr<ExecutionResult> reference = ref_exec.Run(*plan);
      if (reference.ok()) {
        ran = true;
        ExecutionPolicy policy;
        policy.partial_results = true;
        policy.retry.max_attempts = 3;
        policy.retry.jitter_seed = options.seed ^ kFaultStream;

        // Subset soundness under N mutated fault plans. Silent truncation
        // faults under-fill responses without any detectable signal, so
        // only the subset direction is asserted here; exactness is the
        // convergence run's job.
        FaultPlan faults;
        for (size_t i = 0; i < options.fault_plans; ++i) {
          MutateFaultPlan(&faults, schema, &rng);
          VirtualClock clock;
          FaultInjectingService faulty(&backend, faults, &clock);
          PlanExecutor exec(schema, &faulty, &clock, policy);
          StatusOr<ExecutionResult> run = exec.Run(*plan);
          if (!run.ok()) {
            AddFinding(&report, "fault-injection",
                       "monotone plan in partial-result mode failed instead "
                       "of degrading (fault plan " +
                           std::to_string(i) + "): " +
                           run.status().ToString());
            break;
          }
          if (!std::includes(reference->table.begin(),
                             reference->table.end(), run->table.begin(),
                             run->table.end())) {
            AddFinding(&report, "fault-injection",
                       "degraded output is not a subset of the fault-free "
                       "output (fault plan " +
                           std::to_string(i) + ": " +
                           std::to_string(run->table.size()) + " vs " +
                           std::to_string(reference->table.size()) +
                           " tuples)");
            break;
          }
        }

        // Convergence: a deterministic transient-only schedule (first two
        // calls per method fail) with enough retries must reproduce the
        // fault-free output exactly, with no degradation.
        FaultPlan transient;
        transient.seed = rng.Next();
        transient.base.fail_first = 2;
        transient.base.latency_us = 100;
        ExecutionPolicy converge = policy;
        converge.retry.max_attempts = 4;
        VirtualClock clock;
        FaultInjectingService faulty(&backend, transient, &clock);
        PlanExecutor exec(schema, &faulty, &clock, converge);
        StatusOr<ExecutionResult> run = exec.Run(*plan);
        if (!run.ok()) {
          AddFinding(&report, "fault-injection",
                     "transient-only faults defeated retries: " +
                         run.status().ToString());
        } else if (run->partial || run->table != reference->table) {
          AddFinding(&report, "fault-injection",
                     "retried transient-only run did not converge to the "
                     "fault-free output (partial=" +
                         std::to_string(run->partial) + ", " +
                         std::to_string(run->table.size()) + " vs " +
                         std::to_string(reference->table.size()) +
                         " tuples)");
        }

        // Non-monotone discipline: duplicate the plan's first access and
        // subtract it from itself. Partial-result mode must reject the
        // difference plan up front; with the unsound escape hatch and a
        // fault schedule that kills exactly the duplicate, the difference
        // over-approximates — which the harness must catch.
        size_t first_access = plan->commands.size();
        for (size_t i = 0; i < plan->commands.size(); ++i) {
          if (std::holds_alternative<AccessCommand>(plan->commands[i])) {
            first_access = i;
            break;
          }
        }
        if (first_access < plan->commands.size()) {
          const AccessCommand& acc =
              std::get<AccessCommand>(plan->commands[first_access]);
          Plan nonmono;
          nonmono.commands.assign(
              plan->commands.begin(),
              plan->commands.begin() +
                  static_cast<ptrdiff_t>(first_access) + 1);
          AccessCommand again = acc;
          again.output_table = "FZ__again";
          nonmono.commands.emplace_back(again);
          nonmono.Difference("FZ__diff", acc.output_table, "FZ__again");
          nonmono.Return("FZ__diff");

          {
            VirtualClock c;
            PlanExecutor e(schema, &backend, &c, policy);
            StatusOr<ExecutionResult> r = e.Run(nonmono);
            if (r.ok()) {
              AddFinding(&report, "fault-injection",
                         "non-monotone plan (difference) was accepted in "
                         "partial-result mode");
            }
          }
          if (options.inject_partial_bug) {
            // Fault-free value of the difference plan (idempotent backend
            // ⇒ the duplicate access answers identically, so it is ∅ —
            // but compute it rather than assume it).
            VirtualClock c0;
            PlanExecutor e0(schema, &backend, &c0);
            StatusOr<ExecutionResult> base_run = e0.Run(nonmono);
            // Count the calls the prefix (through the original access)
            // makes on acc.method, so a fail_from schedule can degrade
            // exactly the duplicated access.
            Plan prefix;
            prefix.commands.assign(
                plan->commands.begin(),
                plan->commands.begin() +
                    static_cast<ptrdiff_t>(first_access) + 1);
            prefix.Return(acc.output_table);
            FaultPlan none;
            VirtualClock c1;
            FaultInjectingService counting(&backend, none, &c1);
            PlanExecutor e1(schema, &counting, &c1);
            if (base_run.ok() && e1.Run(prefix).ok()) {
              FaultPlan kill;
              kill.per_method[acc.method].fail_from =
                  static_cast<uint32_t>(counting.CallCount(acc.method)) + 1;
              ExecutionPolicy bug = policy;
              bug.unsound_allow_nonmonotone_partial = true;
              VirtualClock c2;
              FaultInjectingService faulty2(&backend, kill, &c2);
              PlanExecutor e2(schema, &faulty2, &c2, bug);
              StatusOr<ExecutionResult> r = e2.Run(nonmono);
              if (r.ok() &&
                  !std::includes(base_run->table.begin(),
                                 base_run->table.end(), r->table.begin(),
                                 r->table.end())) {
                AddFinding(
                    &report, "fault-injection",
                    "degraded non-monotone plan emitted " +
                        std::to_string(r->table.size()) +
                        " tuples the fault-free run does not have "
                        "(unsound_allow_nonmonotone_partial)");
              }
            }
          }
        }
      }
    }
    count(ran);
  }

  // --- chase-differential: semi-naive vs naive on a random instance. ---
  if (options.check_chase) {
    Rng rng(options.seed ^ kChaseStream);
    Instance start = RandomInstance(&universe, schema.relations(),
                                    /*domain_size=*/4, /*num_facts=*/8, &rng);
    if (seed_data != nullptr) start.UnionWith(*seed_data);
    ChaseOptions naive;
    naive.max_rounds = 60;
    naive.max_facts = 8000;
    naive.use_semi_naive = false;
    ChaseOptions semi = naive;
    semi.use_semi_naive = true;

    ChaseResult naive_result =
        RunChase(start, schema.constraints(), &universe, naive);
    ChaseResult semi_result =
        RunChase(start, schema.constraints(), &universe, semi);
    count(true);
    if (naive_result.status != semi_result.status) {
      AddFinding(&report, "chase-differential",
                 "chase status diverges: naive=" +
                     std::to_string(static_cast<int>(naive_result.status)) +
                     " semi-naive=" +
                     std::to_string(static_cast<int>(semi_result.status)));
    } else if (naive_result.status == ChaseStatus::kCompleted) {
      if (!InstanceHomomorphismExists(naive_result.instance,
                                      semi_result.instance) ||
          !InstanceHomomorphismExists(semi_result.instance,
                                      naive_result.instance)) {
        AddFinding(&report, "chase-differential",
                   "completed chases are not homomorphically equivalent "
                   "(naive " +
                       std::to_string(naive_result.instance.NumFacts()) +
                       " facts, semi-naive " +
                       std::to_string(semi_result.instance.NumFacts()) + ")");
      }
    }
    StatusOr<CertainAnswersResult> ca_naive =
        CertainAnswers(query, start, schema.constraints(), &universe, naive);
    StatusOr<CertainAnswersResult> ca_semi =
        CertainAnswers(query, start, schema.constraints(), &universe, semi);
    if (ca_naive.ok() != ca_semi.ok()) {
      AddFinding(&report, "chase-differential",
                 "CertainAnswers status diverges between engines");
    } else if (ca_naive.ok() &&
               (ca_naive->answers != ca_semi->answers ||
                ca_naive->complete != ca_semi->complete ||
                ca_naive->inconsistent != ca_semi->inconsistent)) {
      AddFinding(&report, "chase-differential",
                 "certain answers diverge between naive and semi-naive");
    }
  }

  // --- roundtrip: serialize → parse → serialize fixpoint + stable verdict.
  if (options.check_roundtrip) {
    std::map<std::string, ConjunctiveQuery> queries{{"Q", query}};
    const Instance empty;
    const Instance& data = seed_data != nullptr ? *seed_data : empty;
    std::string text = SerializeDocument(schema, queries, data);
    Universe fresh;
    StatusOr<ParsedDocument> doc = ParseDocument(text, &fresh);
    if (!doc.ok()) {
      count(true);
      AddFinding(&report, "roundtrip",
                 "serializer output does not parse: " +
                     doc.status().ToString());
    } else {
      std::string text2 =
          SerializeDocument(doc->schema, doc->queries, doc->data);
      count(true);
      if (text2 != text) {
        AddFinding(&report, "roundtrip",
                   "serialize(parse(serialize(s))) is not a fixpoint");
      } else if (primary_definite && doc->queries.count("Q") > 0) {
        StatusOr<Decision> replay = DecideMonotoneAnswerability(
            doc->schema, doc->queries.at("Q"), options.decide);
        if (replay.ok() && replay->complete &&
            replay->verdict != primary->verdict) {
          AddFinding(&report, "roundtrip",
                     "verdict changes after a parse round-trip: " +
                         VerdictPair(*primary, *replay));
        }
      }
    }
  }

  return report;
}

}  // namespace rbda
