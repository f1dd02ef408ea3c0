#include "chase/chase.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "chase/relevance.h"
#include "chase/trigger_plan.h"
#include "logic/conjunctive_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rbda {

const char* ChaseExhaustedName(ChaseExhausted e) {
  switch (e) {
    case ChaseExhausted::kNone:
      return "none";
    case ChaseExhausted::kRounds:
      return "rounds";
    case ChaseExhausted::kFacts:
      return "facts";
  }
  return "?";
}

namespace {

// Handles into the default registry, resolved once per process. Goal
// checks count under the containment.* namespace: testing Q' against the
// chased instance IS the homomorphism check the containment engines are
// built from (docs/OBSERVABILITY.md).
struct ChaseMetrics {
  Counter* runs;
  Counter* rounds;
  Counter* delta_rounds;
  Counter* delta_full_rounds;
  Counter* triggers_tgd;
  Counter* triggers_egd;
  Counter* triggers_cardinality;
  Counter* facts_created;
  Counter* fd_conflicts;
  Counter* exhausted_rounds;
  Counter* exhausted_facts;
  Counter* hom_checks;
  Counter* hom_checks_ok;
  Distribution* run_us;
  Distribution* rounds_per_run;
  Distribution* delta_size;
};

const ChaseMetrics& Metrics() {
  static const ChaseMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ChaseMetrics{
        r.GetCounter("chase.runs"),
        r.GetCounter("chase.rounds"),
        r.GetCounter("chase.delta.rounds"),
        r.GetCounter("chase.delta.full_rounds"),
        r.GetCounter("chase.triggers.tgd"),
        r.GetCounter("chase.triggers.egd"),
        r.GetCounter("chase.triggers.cardinality"),
        r.GetCounter("chase.facts_created"),
        r.GetCounter("chase.fd_conflicts"),
        r.GetCounter("chase.exhausted.rounds"),
        r.GetCounter("chase.exhausted.facts"),
        r.GetCounter("containment.hom_checks"),
        r.GetCounter("containment.hom_checks.succeeded"),
        r.GetDistribution("chase.run_us"),
        r.GetDistribution("chase.rounds_per_run"),
        r.GetDistribution("chase.delta.size"),
    };
  }();
  return m;
}

// Preference order for the term kept by an EGD merge: constants survive,
// then variables (frozen query variables), then nulls; ties break on id so
// merges are deterministic.
int KindRank(Term t) {
  switch (t.kind()) {
    case TermKind::kConstant:
      return 0;
    case TermKind::kVariable:
      return 1;
    case TermKind::kNull:
      return 2;
  }
  return 3;
}

// Hashes and compares materialized triggers — indexes into a buffer of
// body-slot tuples `width` terms apart — by their exported slots only.
struct TriggerKey {
  const std::vector<Term>* triggers;
  const std::vector<uint32_t>* exported;
  uint32_t width;

  const Term* Slots(uint32_t t) const {
    return triggers->data() + size_t{t} * width;
  }
  size_t operator()(uint32_t t) const {
    const Term* slots = Slots(t);
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint32_t s : *exported) {
      h ^= TermHash()(slots[s]) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
  bool operator()(uint32_t a, uint32_t b) const {
    const Term* x = Slots(a);
    const Term* y = Slots(b);
    for (uint32_t s : *exported) {
      if (x[s] != y[s]) return false;
    }
    return true;
  }
};

class Engine {
 public:
  Engine(const Instance& start, const ConstraintSet& constraints,
         Universe* universe, const ChaseOptions& options,
         const std::vector<CardinalityRule>& rules)
      : constraints_(constraints),
        universe_(universe),
        options_(options),
        rules_(rules) {
    result_.instance = start;
    // Each TGD is compiled once per chase. Goal-directed pruning
    // (chase/relevance.h) leaves the irrelevant ones uncompiled; plan_tgd_
    // keeps ChaseStep::tgd_index indexing the caller's ConstraintSet.
    const std::vector<bool>* relevant = options_.relevant_relations;
    uint32_t num_slots = 0;
    plans_.reserve(constraints_.tgds.size());
    for (size_t i = 0; i < constraints_.tgds.size(); ++i) {
      const Tgd& tgd = constraints_.tgds[i];
      if (relevant != nullptr && !TgdIsRelevant(tgd, *relevant)) continue;
      num_slots = std::max(num_slots, plans_.emplace_back(tgd).num_slots());
      plan_tgd_.push_back(i);
    }
    slots_.resize(num_slots);
    if (relevant != nullptr) {
      rule_enabled_.reserve(rules_.size());
      for (const CardinalityRule& rule : rules_) {
        rule_enabled_.push_back(CardinalityRuleIsRelevant(rule, *relevant));
      }
    }
  }

  ChaseResult Run(const std::vector<std::vector<Atom>>* goals,
                  bool* goal_reached) {
    Metrics().runs->Increment();
    ScopedTimer run_timer(Metrics().run_us);
    TraceSpan span("chase.run");
    ChaseResult result = RunImpl(goals, goal_reached);
    Metrics().rounds_per_run->Record(result.rounds);
    if (result.status == ChaseStatus::kFdConflict) {
      Metrics().fd_conflicts->Increment();
    }
    if (result.exhausted == ChaseExhausted::kRounds) {
      Metrics().exhausted_rounds->Increment();
    } else if (result.exhausted == ChaseExhausted::kFacts) {
      Metrics().exhausted_facts->Increment();
    }
    if (span.active()) {
      span.AddInt("rounds", static_cast<int64_t>(result.rounds));
      span.AddInt("tgd_steps", static_cast<int64_t>(result.tgd_steps));
      span.AddInt("egd_merges", static_cast<int64_t>(result.egd_merges));
      span.AddInt("facts", static_cast<int64_t>(result.instance.NumFacts()));
      span.AddStr("status",
                  result.status == ChaseStatus::kCompleted   ? "completed"
                  : result.status == ChaseStatus::kFdConflict ? "fd_conflict"
                                                              : "budget");
      span.AddStr("exhausted", ChaseExhaustedName(result.exhausted));
    }
    return result;
  }

 private:
  ChaseResult RunImpl(const std::vector<std::vector<Atom>>* goals,
                      bool* goal_reached) {
    if (goal_reached) *goal_reached = false;
    // Delta-restricted when `delta` is non-null: the pre-delta state was
    // already goal-checked, so only homomorphisms touching the delta can
    // newly satisfy a goal.
    std::vector<GoalMatcher> matchers;
    if (goals != nullptr) {
      for (const std::vector<Atom>& goal : *goals) matchers.emplace_back(goal);
    }
    auto goal_holds = [&](const Instance::DeltaMark* delta) {
      for (GoalMatcher& matcher : matchers) {
        Metrics().hom_checks->Increment();
        ++result_.goal_checks;
        if (matcher.Holds(result_.instance, delta)) {
          Metrics().hom_checks_ok->Increment();
          return true;
        }
      }
      return false;
    };

    if (!ApplyFdsToFixpoint()) {
      result_.status = ChaseStatus::kFdConflict;
      return std::move(result_);
    }
    if (goal_holds(nullptr)) {
      if (goal_reached) *goal_reached = true;
      result_.status = ChaseStatus::kCompleted;
      return std::move(result_);
    }

    // Facts visible at the start of the previous round's firing phase;
    // valid only while no EGD rebuild intervened (see chase.h).
    Instance::DeltaMark prev_mark;
    bool prev_mark_valid = false;

    for (uint64_t round = 1; round <= options_.max_rounds; ++round) {
      result_.rounds = round;
      Metrics().rounds->Increment();
      Instance::DeltaMark round_mark = result_.instance.Mark();
      bool semi = options_.use_semi_naive && prev_mark_valid &&
                  result_.instance.MarkValid(prev_mark);
      const Instance::DeltaMark* delta = semi ? &prev_mark : nullptr;
      if (semi) {
        Metrics().delta_rounds->Increment();
        Metrics().delta_size->Record(result_.instance.generation() -
                                     prev_mark.generation);
      } else {
        Metrics().delta_full_rounds->Increment();
      }
      uint64_t fired = FireTgdRound(round, delta);
      if (!budget_tripped_) fired += FireCardinalityRound(delta);
      if (TraceEnabled()) {
        TraceEventRecord(
            "chase.round",
            {{"round", static_cast<int64_t>(round)},
             {"fired", static_cast<int64_t>(fired)},
             {"facts", static_cast<int64_t>(result_.instance.NumFacts())}},
            {{"mode", semi ? "delta" : "full"}});
      }
      if (!ApplyFdsToFixpoint()) {
        result_.status = ChaseStatus::kFdConflict;
        return std::move(result_);
      }
      // A goal reached within budget still wins, even on a truncated
      // round: check before reporting the budget trip.
      bool round_mark_ok = options_.use_semi_naive &&
                           result_.instance.MarkValid(round_mark);
      if (goal_holds(round_mark_ok ? &round_mark : nullptr)) {
        if (goal_reached) *goal_reached = true;
        result_.status = ChaseStatus::kCompleted;
        return std::move(result_);
      }
      if (budget_tripped_ ||
          result_.instance.NumFacts() > options_.max_facts) {
        result_.status = ChaseStatus::kBudgetExceeded;
        result_.exhausted = ChaseExhausted::kFacts;
        return std::move(result_);
      }
      if (fired == 0) {
        result_.status = ChaseStatus::kCompleted;
        return std::move(result_);
      }
      prev_mark = std::move(round_mark);
      prev_mark_valid = round_mark_ok;
    }
    result_.status = ChaseStatus::kBudgetExceeded;
    result_.exhausted = ChaseExhausted::kRounds;
    return std::move(result_);
  }

 private:
  // Fires all TGD triggers that are active at the start of the round
  // (re-checking activeness right before each firing). When `delta` is
  // non-null, only enumerates triggers with at least one body atom in the
  // delta (semi-naive); pre-delta triggers were handled in earlier rounds.
  // Stops early (budget_tripped_) when a firing pushes the instance past
  // the fact budget. Returns the number of firings.
  uint64_t FireTgdRound(uint64_t round, const Instance::DeltaMark* delta) {
    uint64_t fired = 0;
    Instance& inst = result_.instance;
    for (size_t k = 0; k < plans_.size(); ++k) {
      CompiledTgd& plan = plans_[k];
      const uint32_t width = plan.num_body_slots();

      // Materialize the triggers first, as body-slot tuples: firing
      // mutates the instance the enumeration walks over. Deduplicate them
      // by their exported slots (two body matches with the same exported
      // image need only one head witness); the first match wins.
      triggers_.clear();
      uint32_t num_triggers = 0;
      TriggerKey key{&triggers_, &plan.exported_slots(), width};
      std::unordered_set<uint32_t, TriggerKey, TriggerKey> seen(0, key, key);
      plan.ForEachBodyMatch(inst, delta, slots_.data(),
                            [&](const Term* bound) {
                              triggers_.insert(triggers_.end(), bound,
                                               bound + width);
                              if (seen.insert(num_triggers).second) {
                                ++num_triggers;
                              } else {
                                triggers_.resize(triggers_.size() - width);
                              }
                            });

      for (uint32_t t = 0; t < num_triggers; ++t) {
        std::copy_n(triggers_.begin() + size_t{t} * width, width,
                    slots_.begin());
        if (plan.HasWitness(inst, slots_.data(), &row_)) {
          continue;  // not active: head witness already exists
        }
        // Fire: fresh nulls for the existential slots, then the head
        // rows. A row-id-cap overflow degrades like a fact-budget trip
        // (the caller sees kBudgetExceeded/kFacts) instead of aborting.
        created_.clear();
        if (!plan.Fire(&inst, universe_, slots_.data(), &row_, &created_)) {
          budget_tripped_ = true;
          return fired;
        }
        ++fired;
        ++result_.tgd_steps;
        Metrics().triggers_tgd->Increment();
        Metrics().facts_created->Increment(created_.size());
        if (options_.record_trace) {
          // Record the full body homomorphism plus the fresh witnesses so
          // consumers (plan extraction) can reconstruct both the trigger
          // facts and the created facts.
          result_.trace.push_back(
              ChaseStep{plan_tgd_[k], plan.Bindings(slots_.data()),
                        std::vector<Fact>(created_.begin(), created_.end()),
                        round});
        }
        if (inst.NumFacts() > options_.max_facts) {
          budget_tripped_ = true;
          return fired;
        }
      }
    }
    return fired;
  }

  // Fires the naive §3 cardinality-transfer rules: see CardinalityRule.
  // Semi-naive (`delta` non-null): a binding can only newly need witnesses
  // if a delta fact raised its source-match count or newly made one of its
  // values accessible, so all other bindings are skipped — they were
  // satisfied when last processed, and `have` only grows while `j` grows
  // only through new source facts.
  uint64_t FireCardinalityRound(const Instance::DeltaMark* delta) {
    uint64_t fired = 0;
    for (size_t ri = 0; ri < rules_.size(); ++ri) {
      if (!rule_enabled_.empty() && !rule_enabled_[ri]) continue;  // pruned
      const CardinalityRule& rule = rules_[ri];
      std::set<std::vector<Term>> dirty;  // bindings with new source facts
      TermSet newly_accessible;
      if (delta != nullptr) {
        FactRange src = result_.instance.FactsOf(rule.source_rel);
        for (uint32_t i = result_.instance.DeltaBegin(*delta, rule.source_rel);
             i < src.size(); ++i) {
          std::vector<Term> key;
          key.reserve(rule.input_positions.size());
          for (uint32_t p : rule.input_positions) {
            key.push_back(src[i].arg(p));
          }
          dirty.insert(std::move(key));
        }
        if (rule.require_accessible) {
          FactRange acc = result_.instance.FactsOf(rule.accessible_rel);
          for (uint32_t i =
                   result_.instance.DeltaBegin(*delta, rule.accessible_rel);
               i < acc.size(); ++i) {
            newly_accessible.insert(acc[i].arg(0));
          }
        }
        if (dirty.empty() && newly_accessible.empty()) continue;
      }
      // Group source facts by their input-position tuple.
      std::map<std::vector<Term>, std::set<std::vector<Term>>> groups;
      for (FactRef f : result_.instance.FactsOf(rule.source_rel)) {
        std::vector<Term> key;
        key.reserve(rule.input_positions.size());
        for (uint32_t p : rule.input_positions) key.push_back(f.arg(p));
        groups[std::move(key)].insert(
            std::vector<Term>(f.args().begin(), f.args().end()));
      }
      for (const auto& [binding, matches] : groups) {
        if (delta != nullptr && dirty.count(binding) == 0) {
          bool touched = false;
          for (Term t : binding) {
            if (newly_accessible.count(t) > 0) {
              touched = true;
              break;
            }
          }
          if (!touched) continue;
        }
        // The binding values must all be accessible (unless the rule is
        // unconditional).
        if (rule.require_accessible) {
          bool accessible = true;
          for (Term t : binding) {
            if (!result_.instance.ContainsRow(rule.accessible_rel, {&t, 1})) {
              accessible = false;
              break;
            }
          }
          if (!accessible) continue;
        }
        uint64_t j = std::min<uint64_t>(rule.bound, matches.size());
        // Count distinct target facts matching the binding.
        uint64_t have = 0;
        for (FactRef f : result_.instance.FactsOf(rule.target_rel)) {
          bool match = true;
          for (size_t idx = 0; idx < rule.input_positions.size(); ++idx) {
            if (f.arg(rule.input_positions[idx]) != binding[idx]) {
              match = false;
              break;
            }
          }
          if (match) ++have;
        }
        uint32_t arity = universe_->Arity(rule.target_rel);
        while (have < j) {
          std::vector<Term> args(arity, Term());
          std::vector<bool> is_input(arity, false);
          for (size_t idx = 0; idx < rule.input_positions.size(); ++idx) {
            args[rule.input_positions[idx]] = binding[idx];
            is_input[rule.input_positions[idx]] = true;
          }
          for (uint32_t p = 0; p < arity; ++p) {
            if (!is_input[p]) args[p] = universe_->FreshNull();
          }
          bool inserted = false;
          if (!result_.instance
                   .TryAddRow(rule.target_rel, {args.data(), args.size()},
                              &inserted)
                   .ok()) {
            // Row-id space exhausted: degrade as a fact-budget trip.
            budget_tripped_ = true;
            return fired;
          }
          ++have;
          ++fired;
          Metrics().triggers_cardinality->Increment();
          Metrics().facts_created->Increment();
          if (result_.instance.NumFacts() > options_.max_facts) {
            // Stop at the point of violation: a single rule with a large
            // bound must not blow past the fact budget within one round.
            budget_tripped_ = true;
            return fired;
          }
        }
      }
    }
    return fired;
  }

  // Repairs FD violations by merging terms. Returns false on an attempt to
  // merge two distinct constants (the chase fails).
  //
  // Merges are accumulated in a union-find over terms (representative =
  // highest-priority member, see KindRank) and the instance is rewritten
  // once at the end, instead of rebuilding it after every single merge and
  // restarting the scan — the old behaviour was quadratic in the length of
  // merge chains. Scans repeat, resolving terms through the union-find,
  // until a full pass over all FDs finds no new merge; that final clean
  // pass certifies the fixpoint.
  bool ApplyFdsToFixpoint() {
    if (constraints_.fds.empty()) return true;
    std::unordered_map<Term, Term, TermHash> parent;
    auto find = [&](Term t) {
      Term root = t;
      for (auto it = parent.find(root); it != parent.end();
           it = parent.find(root)) {
        root = it->second;
      }
      // Path compression.
      while (t != root) {
        Term next = parent[t];
        parent[t] = root;
        t = next;
      }
      return root;
    };

    uint64_t unions = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Fd& fd : constraints_.fds) {
        std::map<std::vector<Term>, Term> witness;
        for (FactRef f : result_.instance.FactsOf(fd.relation)) {
          std::vector<Term> key;
          key.reserve(fd.determiners.size());
          for (uint32_t p : fd.determiners) key.push_back(find(f.arg(p)));
          Term value = find(f.arg(fd.determined));
          auto [it, inserted] = witness.emplace(std::move(key), value);
          if (inserted) continue;
          Term a = find(it->second);
          Term b = value;
          if (a == b) continue;
          if (a.IsConstant() && b.IsConstant()) return false;
          // Keep the higher-priority term as the representative.
          if (std::make_pair(KindRank(a), a.id()) >
              std::make_pair(KindRank(b), b.id())) {
            std::swap(a, b);
          }
          parent[b] = a;
          it->second = a;
          ++unions;
          ++result_.egd_merges;
          Metrics().triggers_egd->Increment();
          changed = true;
        }
      }
    }
    if (unions > 0) {
      std::unordered_map<Term, Term, TermHash> mapping;
      mapping.reserve(parent.size());
      for (const auto& [term, unused] : parent) {
        mapping.emplace(term, find(term));
      }
      result_.instance.ReplaceTerms(mapping);
    }
    return true;
  }

  const ConstraintSet& constraints_;
  Universe* universe_;
  const ChaseOptions& options_;
  const std::vector<CardinalityRule>& rules_;
  ChaseResult result_;
  // The enabled TGDs' trigger plans, and each one's index into
  // constraints_.tgds; see ctor.
  std::vector<CompiledTgd> plans_;
  std::vector<size_t> plan_tgd_;
  // Scratch reused by every round: one slot array, the triggers of the
  // TGD being fired (body-slot tuples back to back), a head row, and the
  // rows a firing created.
  std::vector<Term> slots_;
  std::vector<Term> triggers_;
  std::vector<Term> row_;
  std::vector<FactRef> created_;
  // Per-index relevance filter for the rules (empty = fire every rule).
  std::vector<bool> rule_enabled_;
  // Set by the firing helpers when a firing pushed the instance past
  // options_.max_facts; RunImpl then stops with exhausted = kFacts.
  bool budget_tripped_ = false;
};

}  // namespace

ChaseResult RunChase(const Instance& start, const ConstraintSet& constraints,
                     Universe* universe, const ChaseOptions& options,
                     const std::vector<CardinalityRule>& cardinality_rules) {
  Engine engine(start, constraints, universe, options, cardinality_rules);
  return engine.Run(nullptr, nullptr);
}

ChaseResult RunChaseUntil(
    const Instance& start, const ConstraintSet& constraints,
    const std::vector<Atom>& goal_atoms, Universe* universe,
    bool* goal_reached, const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  std::vector<std::vector<Atom>> goals{goal_atoms};
  Engine engine(start, constraints, universe, options, cardinality_rules);
  return engine.Run(&goals, goal_reached);
}

ChaseResult RunChaseUntilAny(
    const Instance& start, const ConstraintSet& constraints,
    const std::vector<std::vector<Atom>>& goals, Universe* universe,
    bool* goal_reached, const ChaseOptions& options,
    const std::vector<CardinalityRule>& cardinality_rules) {
  Engine engine(start, constraints, universe, options, cardinality_rules);
  return engine.Run(&goals, goal_reached);
}

}  // namespace rbda
