#include "chase/chase.h"

#include <algorithm>
#include <numeric>
#include <utility>

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

// The rows of `rows` whose `positions` hold `binding`, counted up to
// `cap`, walking the shortest posting list of the binding's values. With
// no positions every row matches.
uint64_t CountBindingRows(FactRange rows,
                          const std::vector<uint32_t>& positions,
                          const Term* binding, uint64_t cap) {
  if (positions.empty()) return std::min<uint64_t>(rows.size(), cap);
  std::span<const uint32_t> list = rows.Postings(positions[0], binding[0]);
  for (size_t i = 1; i < positions.size(); ++i) {
    std::span<const uint32_t> l = rows.Postings(positions[i], binding[i]);
    if (l.size() < list.size()) list = l;
  }
  uint64_t n = 0;
  for (uint32_t r : list) {
    if (n >= cap) break;
    const FactRef f = rows[r];
    bool match = true;
    for (size_t i = 0; i < positions.size() && match; ++i) {
      match = f.arg(positions[i]) == binding[i];
    }
    n += match;
  }
  return n;
}

}  // namespace

void CollectCardinalityBindings(const Instance& instance,
                                const CardinalityRule& rule,
                                const Instance::DeltaMark* delta,
                                CardinalityBindings* out) {
  const std::vector<uint32_t>& positions = rule.input_positions;
  const FactRange source = instance.FactsOf(rule.source_rel);
  std::vector<uint32_t>& rows = out->rows;
  out->width = positions.size();
  out->values.clear();
  out->need.clear();
  if (delta == nullptr) {
    rows.resize(source.size());
    std::iota(rows.begin(), rows.end(), 0u);
  } else {
    const uint32_t begin = instance.DeltaBegin(*delta, rule.source_rel);
    rows.resize(source.size() - begin);
    std::iota(rows.begin(), rows.end(), begin);
    if (rule.require_accessible && !positions.empty()) {
      const FactRange acc = instance.FactsOf(rule.accessible_rel);
      for (uint32_t a = instance.DeltaBegin(*delta, rule.accessible_rel);
           a < acc.size(); ++a) {
        for (uint32_t p : positions) {
          std::span<const uint32_t> l = source.Postings(p, acc[a].arg(0));
          rows.insert(rows.end(), l.begin(), l.end());
        }
      }
    }
  }
  // Orders rows by their binding, as a std::map keyed by the binding
  // would; rows with equal bindings are then adjacent.
  auto less = [&](uint32_t a, uint32_t b) {
    const FactRef x = source[a];
    const FactRef y = source[b];
    for (uint32_t p : positions) {
      if (x.arg(p) != y.arg(p)) return x.arg(p) < y.arg(p);
    }
    return false;
  };
  std::sort(rows.begin(), rows.end(), less);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && !less(rows[i - 1], rows[i])) continue;  // same binding
    const FactRef f = source[rows[i]];
    if (rule.require_accessible &&
        !std::all_of(positions.begin(), positions.end(), [&](uint32_t p) {
          return instance.ContainsRow(rule.accessible_rel,
                                      f.args().subspan(p, 1));
        })) {
      continue;
    }
    for (uint32_t p : positions) out->values.push_back(f.arg(p));
    out->need.push_back(CountBindingRows(
        source, positions, out->binding(out->need.size()), rule.bound));
  }
}

uint64_t CountCardinalityTargets(const Instance& instance,
                                 const CardinalityRule& rule,
                                 const Term* binding, uint64_t cap) {
  return CountBindingRows(instance.FactsOf(rule.target_rel),
                          rule.input_positions, binding, cap);
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

// Combines the hashes of `n` terms, the i-th being `term(i)`.
template <typename TermAt>
uint64_t HashTerms(size_t n, TermAt term) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= TermHash()(term(i)) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// An open-addressed set of indices into a caller's buffer of keys, hashed
// and compared by the caller: the Engine's one scratch table for trigger
// dedup (FireTgdRound) and FD witnesses (ApplyFdsToFixpoint). Clear()
// empties only the slots in use, so it costs in proportion to the
// entries, not to the capacity a large round left behind. A slot keeps
// its entry's hash: growing calls no hash function, and a probe compares
// keys only when the hashes agree.
class IndexTable {
 public:
  // The index stored under a key equal to the candidate's, where
  // `equal(i)` compares stored index i with the candidate; if there is
  // none, stores `index` and returns it. The first index stored under a
  // key wins.
  template <typename Equal>
  uint32_t Insert(uint64_t hash, uint32_t index, Equal&& equal) {
    if ((used_.size() + 1) * 10 > slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    const auto h = static_cast<uint32_t>(hash);
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.index == kEmpty) {
        slot = Slot{h, index};
        used_.push_back(static_cast<uint32_t>(i));
        return index;
      }
      if (slot.hash == h && equal(slot.index)) return slot.index;
    }
  }

  void Clear() {
    for (uint32_t i : used_) slots_[i].index = kEmpty;
    used_.clear();
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t hash = 0;
    uint32_t index = kEmpty;
  };

  void Grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max<size_t>(16, slots_.size() * 2)));
    const size_t mask = slots_.size() - 1;
    used_.clear();
    for (const Slot& slot : old) {
      if (slot.index == kEmpty) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].index != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
      used_.push_back(static_cast<uint32_t>(i));
    }
  }

  std::vector<Slot> slots_;  // a power of two, at most 70% full
  std::vector<uint32_t> used_;  // the positions of the entries
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

    if (!ApplyFdsToFixpoint(nullptr)) {
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
      // Firing only appends, so round_mark still delimits this round's
      // facts for the FD check.
      RBDA_DCHECK(result_.instance.MarkValid(round_mark));
      if (!ApplyFdsToFixpoint(&round_mark)) {
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
      table_.Clear();
      uint32_t num_triggers = 0;
      const std::vector<uint32_t>& exported = plan.exported_slots();
      plan.ForEachBodyMatch(
          inst, delta, slots_.data(), [&](const Term* bound) {
            const uint64_t hash = HashTerms(
                exported.size(), [&](size_t i) { return bound[exported[i]]; });
            auto same_image = [&](uint32_t t) {
              const Term* other = triggers_.data() + size_t{t} * width;
              return std::all_of(
                  exported.begin(), exported.end(),
                  [&](uint32_t s) { return other[s] == bound[s]; });
            };
            if (table_.Insert(hash, num_triggers, same_image) ==
                num_triggers) {
              triggers_.insert(triggers_.end(), bound, bound + width);
              ++num_triggers;
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
  // Semi-naive (`delta` non-null): only the bindings that can newly need
  // witnesses are checked (CollectCardinalityBindings); the others were
  // satisfied when last checked, and `have` only grows while `j` grows
  // only through new source facts. Each binding's `have` is counted when
  // it is processed, so it sees the rule's own earlier firings.
  uint64_t FireCardinalityRound(const Instance::DeltaMark* delta) {
    uint64_t fired = 0;
    Instance& inst = result_.instance;
    for (size_t ri = 0; ri < rules_.size(); ++ri) {
      if (!rule_enabled_.empty() && !rule_enabled_[ri]) continue;  // pruned
      const CardinalityRule& rule = rules_[ri];
      CollectCardinalityBindings(inst, rule, delta, &bindings_);
      const std::vector<uint32_t>& inputs = rule.input_positions;
      const uint32_t arity = universe_->Arity(rule.target_rel);
      for (size_t b = 0; b < bindings_.size(); ++b) {
        const Term* binding = bindings_.binding(b);
        const uint64_t j = bindings_.need[b];
        for (uint64_t have = CountCardinalityTargets(inst, rule, binding, j);
             have < j; ++have) {
          row_.resize(arity);
          for (uint32_t p = 0; p < arity; ++p) {
            if (std::find(inputs.begin(), inputs.end(), p) == inputs.end()) {
              row_[p] = universe_->FreshNull();
            }
          }
          for (size_t idx = 0; idx < inputs.size(); ++idx) {
            row_[inputs[idx]] = binding[idx];
          }
          bool inserted = false;
          if (!inst.TryAddRow(rule.target_rel, row_, &inserted).ok()) {
            // Row-id space exhausted: degrade as a fact-budget trip.
            budget_tripped_ = true;
            return fired;
          }
          ++fired;
          Metrics().triggers_cardinality->Increment();
          Metrics().facts_created->Increment();
          if (inst.NumFacts() > options_.max_facts) {
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

  // True when a fact of `inst` added since `since` (any fact when `since`
  // is null) violates an FD. The older facts satisfy every FD: the
  // previous call left a fixpoint, and only appends happened since. So a
  // violation has a new fact in it, and a new fact is in one iff it
  // disagrees with the first row, in row order, holding its determiner
  // values: two rows that both agree with that row agree with each other.
  // That first row is found by walking the shortest column posting of the
  // fact's determiner values; the fact itself ends the walk at the latest.
  bool NewFactViolatesFd(const Instance::DeltaMark* since) const {
    const Instance& inst = result_.instance;
    for (const Fd& fd : constraints_.fds) {
      const FactRange rows = inst.FactsOf(fd.relation);
      for (uint32_t r = since ? inst.DeltaBegin(*since, fd.relation) : 0;
           r < rows.size(); ++r) {
        const FactRef f = rows[r];
        uint32_t first = 0;  // no determiners: every row shares the key
        if (!fd.determiners.empty()) {
          std::span<const uint32_t> list;
          for (size_t i = 0; i < fd.determiners.size(); ++i) {
            const uint32_t p = fd.determiners[i];
            std::span<const uint32_t> l = rows.Postings(p, f.arg(p));
            if (i == 0 || l.size() < list.size()) list = l;
          }
          for (uint32_t q : list) {
            const FactRef g = rows[q];
            first = q;
            if (q == r ||
                std::all_of(fd.determiners.begin(), fd.determiners.end(),
                            [&](uint32_t p) { return g.arg(p) == f.arg(p); })) {
              break;
            }
          }
        }
        if (rows[first].arg(fd.determined) != f.arg(fd.determined)) {
          return true;
        }
      }
    }
    return false;
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
  // pass certifies the fixpoint. The loop runs only when
  // NewFactViolatesFd finds a violation among the facts added since
  // `since`: that is exactly when its first pass, with nothing resolved
  // yet, would merge, so merges and their order are those of the loop
  // alone.
  bool ApplyFdsToFixpoint(const Instance::DeltaMark* since) {
    if (constraints_.fds.empty() || !NewFactViolatesFd(since)) return true;
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
        // The first fact per resolved determiner tuple is the witness: its
        // tuple goes to fd_keys_ (tuples back to back) and its value to
        // fd_values_, which a merge updates to the representative. A
        // stored tuple is not resolved again when a later merge in the
        // pass changes one of its terms; the next pass compares it under
        // the new representatives. That keeps merges and their order.
        const size_t width = fd.determiners.size();
        table_.Clear();
        fd_keys_.clear();
        fd_values_.clear();
        for (FactRef f : result_.instance.FactsOf(fd.relation)) {
          const auto n = static_cast<uint32_t>(fd_values_.size());
          for (uint32_t p : fd.determiners) fd_keys_.push_back(find(f.arg(p)));
          const Term* key = fd_keys_.data() + size_t{n} * width;
          Term value = find(f.arg(fd.determined));
          const uint32_t w = table_.Insert(
              HashTerms(width, [&](size_t i) { return key[i]; }), n,
              [&](uint32_t i) {
                return std::equal(key, key + width,
                                  fd_keys_.data() + size_t{i} * width);
              });
          if (w == n) {
            fd_values_.push_back(value);
            continue;
          }
          fd_keys_.resize(size_t{n} * width);
          Term a = find(fd_values_[w]);
          Term b = value;
          if (a == b) continue;
          if (a.IsConstant() && b.IsConstant()) return false;
          // Keep the higher-priority term as the representative.
          if (std::make_pair(KindRank(a), a.id()) >
              std::make_pair(KindRank(b), b.id())) {
            std::swap(a, b);
          }
          parent[b] = a;
          fd_values_[w] = a;
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
  // The dedup table over triggers_, and over the FD repair's witnesses:
  // their determiner tuples back to back, and their values.
  IndexTable table_;
  std::vector<Term> fd_keys_;
  std::vector<Term> fd_values_;
  // One rule's bindings, reused by every cardinality round.
  CardinalityBindings bindings_;
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
