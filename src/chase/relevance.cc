#include "chase/relevance.h"

#include <algorithm>

#include "chase/trigger_plan.h"

namespace rbda {

namespace {

// Marks `relation` relevant/present, growing the bitset when a relation id
// exceeds the pre-sized universe count. Returns true when the bit was
// newly set (fixpoint progress).
bool Mark(RelationId relation, std::vector<bool>* bits) {
  size_t r = static_cast<size_t>(relation);
  if (r >= bits->size()) bits->resize(r + 1, false);
  if ((*bits)[r]) return false;
  (*bits)[r] = true;
  return true;
}

}  // namespace

bool TgdIsRelevant(const Tgd& tgd, const std::vector<bool>& relevant) {
  for (const Atom& h : tgd.head()) {
    if (RelationIsRelevant(h.relation, relevant)) return true;
  }
  return false;
}

bool CardinalityRuleIsRelevant(const CardinalityRule& rule,
                               const std::vector<bool>& relevant) {
  return RelationIsRelevant(rule.target_rel, relevant);
}

RelevanceResult ComputeRelevance(const std::vector<std::vector<Atom>>& goals,
                                 const std::vector<Tgd>& tgds,
                                 const std::vector<Fd>& fds,
                                 const std::vector<CardinalityRule>& rules,
                                 size_t num_relations,
                                 bool inject_overprune_for_testing) {
  RelevanceResult out;
  std::vector<bool>& relevant = out.relevant_relations;
  relevant.assign(num_relations, false);

  for (const std::vector<Atom>& goal : goals) {
    for (const Atom& a : goal) Mark(a.relation, &relevant);
  }
  for (const Fd& fd : fds) Mark(fd.relation, &relevant);
  // Seeds are exempt from the overprune injection: dropping a goal or FD
  // relation would break trivially (the goal could never match at all),
  // which is not the subtle bug class the checker exists to catch.
  std::vector<bool> seeds = relevant;

  bool changed = true;
  while (changed) {
    changed = false;
    for (const Tgd& tgd : tgds) {
      if (!TgdIsRelevant(tgd, relevant)) continue;
      for (const Atom& b : tgd.body()) changed |= Mark(b.relation, &relevant);
    }
    for (const CardinalityRule& rule : rules) {
      if (!CardinalityRuleIsRelevant(rule, relevant)) continue;
      changed |= Mark(rule.source_rel, &relevant);
      if (rule.require_accessible) {
        changed |= Mark(rule.accessible_rel, &relevant);
      }
    }
  }

  if (inject_overprune_for_testing) {
    for (size_t r = relevant.size(); r-- > 0;) {
      if (relevant[r] && (r >= seeds.size() || !seeds[r])) {
        relevant[r] = false;
        break;
      }
    }
  }

  for (const Tgd& tgd : tgds) {
    TgdIsRelevant(tgd, relevant) ? ++out.relevant_tgds : ++out.pruned_tgds;
  }
  for (const CardinalityRule& rule : rules) {
    CardinalityRuleIsRelevant(rule, relevant) ? ++out.relevant_rules
                                              : ++out.pruned_rules;
  }
  return out;
}

std::vector<bool> SignatureClosure(const Instance& start,
                                   const std::vector<Tgd>& tgds,
                                   const std::vector<CardinalityRule>& rules,
                                   const std::vector<bool>& relevant) {
  std::vector<bool> present(relevant.size(), false);
  start.ForEachFact([&present](FactRef f) { Mark(f.relation(), &present); });

  auto has = [&present](RelationId r) {
    return static_cast<size_t>(r) < present.size() && present[r];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Tgd& tgd : tgds) {
      if (!TgdIsRelevant(tgd, relevant)) continue;  // pruned: never fires
      bool body_present = true;
      for (const Atom& b : tgd.body()) {
        if (!has(b.relation)) {
          body_present = false;
          break;
        }
      }
      if (!body_present) continue;
      for (const Atom& h : tgd.head()) changed |= Mark(h.relation, &present);
    }
    for (const CardinalityRule& rule : rules) {
      if (!CardinalityRuleIsRelevant(rule, relevant)) continue;
      if (!has(rule.source_rel)) continue;
      // A rule with no input positions has a vacuous accessibility
      // precondition: it fires from the source relation alone, so the
      // accessible relation is only a necessary ingredient when some
      // input term must be proven accessible.
      if (rule.require_accessible && !rule.input_positions.empty() &&
          !has(rule.accessible_rel)) {
        continue;
      }
      changed |= Mark(rule.target_rel, &present);
    }
  }
  return present;
}

bool GoalWithinSignature(const std::vector<Atom>& goal,
                         const std::vector<bool>& closure) {
  for (const Atom& a : goal) {
    if (static_cast<size_t>(a.relation) >= closure.size() ||
        !closure[a.relation]) {
      return false;
    }
  }
  return true;
}

std::optional<Instance> CounterModelRefutesGoals(
    const Instance& start, const std::vector<std::vector<Atom>>& goals,
    const std::vector<Tgd>& tgds, const std::vector<CardinalityRule>& rules,
    Universe* universe, size_t max_facts, size_t max_rounds) {
  if (universe == nullptr) return std::nullopt;
  // Each goal is compiled once, for the check on `start` and the one on
  // the saturated model.
  std::vector<CompiledJoin> goal_joins;
  goal_joins.reserve(goals.size());
  size_t goal_width = 0;
  for (const std::vector<Atom>& goal : goals) {
    goal_width = std::max<size_t>(goal_width,
                                  goal_joins.emplace_back(goal).num_slots());
  }
  std::vector<Term> goal_slots(goal_width);
  auto some_goal_holds = [&](const Instance& inst) {
    for (CompiledJoin& join : goal_joins) {
      if (join.Exists(inst, nullptr, goal_slots.data())) return true;
    }
    return false;
  };
  // A model containing `start` cannot refute a goal that already holds in
  // `start`: decline before minting any witness.
  if (some_goal_holds(start)) return std::nullopt;

  Instance m;
  bool overflow = false;
  start.ForEachFactUntil([&](FactRef f) {
    bool inserted = false;
    if (!m.TryAddRow(f.relation(), f.args(), &inserted).ok()) {
      overflow = true;
      return false;
    }
    return true;
  });
  if (overflow || m.NumFacts() > max_facts) return std::nullopt;

  // One fixed witness null per (TGD, existential variable), held in the
  // TGD's existential slots: every firing of the same TGD lands on the
  // same witnesses, which merges the chase tree's sibling subtrees. The
  // merged structure still satisfies each ∀∃ sentence — an existential
  // only needs SOME witness — and the quotient map from the real chase
  // into it shows every chase fact has an image here, so a goal that
  // fails here fails in the chase too.
  std::vector<CompiledTgd> plans;
  std::vector<std::vector<Term>> slots(tgds.size());
  plans.reserve(tgds.size());
  for (size_t i = 0; i < tgds.size(); ++i) {
    const CompiledTgd& plan = plans.emplace_back(tgds[i]);
    slots[i].resize(plan.num_slots());
    for (uint32_t s = plan.num_body_slots(); s < plan.num_slots(); ++s) {
      slots[i][s] = universe->FreshNull();
    }
  }
  // Cardinality rules need up to `bound` DISTINCT target facts per
  // binding, so each rule gets a lazily-grown pool of witness rows, one
  // per copy index (copies differ in their non-input positions).
  std::vector<std::vector<std::vector<Term>>> rule_nulls(rules.size());

  // Level-synchronous semi-naive rounds: a round collects what the model
  // as it stood at the round's start derives, then adds it. With the
  // witnesses fixed, a body match made only of facts older than the
  // previous round derives rows an earlier round already added, so round
  // 1 matches the whole start instance and every later round only the
  // matches touching `delta`, the previous round's facts.
  Instance::DeltaMark delta;
  std::vector<Term> head_row;
  CardinalityBindings bindings;
  bool saturated = false;
  for (size_t round = 0; round < max_rounds && !saturated; ++round) {
    std::vector<Fact> pending;
    for (size_t i = 0; i < plans.size(); ++i) {
      CompiledTgd& plan = plans[i];
      plan.ForEachBodyMatch(
          m, round == 0 ? nullptr : &delta, slots[i].data(),
          [&](const Term* bound) {
            for (size_t h = 0; h < plan.num_head_atoms(); ++h) {
              plan.HeadRow(h, bound, &head_row);
              if (!m.ContainsRow(plan.head_relation(h), head_row)) {
                pending.emplace_back(plan.head_relation(h), head_row);
              }
            }
          });
    }
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      const CardinalityRule& rule = rules[ri];
      // Mirror FireCardinalityRound, in full every round: demand
      // min(bound, #matches) distinct targets per accessible binding.
      CollectCardinalityBindings(m, rule, nullptr, &bindings);
      uint32_t arity = universe->Arity(rule.target_rel);
      for (size_t b = 0; b < bindings.size(); ++b) {
        const Term* binding = bindings.binding(b);
        uint64_t j = bindings.need[b];
        uint64_t have = CountCardinalityTargets(m, rule, binding, j);
        // Top up with canonical copies. A canonical copy already in the
        // model was counted in `have`, so this cannot loop forever.
        for (uint64_t c = 0; c < j && have < j; ++c) {
          while (rule_nulls[ri].size() <= c) {
            std::vector<Term> row;
            row.reserve(arity);
            for (uint32_t p = 0; p < arity; ++p) {
              row.push_back(universe->FreshNull());
            }
            rule_nulls[ri].push_back(std::move(row));
          }
          Fact f;
          f.relation = rule.target_rel;
          f.args = rule_nulls[ri][c];
          for (size_t idx = 0; idx < rule.input_positions.size(); ++idx) {
            f.args[rule.input_positions[idx]] = binding[idx];
          }
          if (m.Contains(f)) continue;  // counted in `have` already
          pending.push_back(std::move(f));
          ++have;
        }
      }
    }
    if (pending.empty()) {
      saturated = true;
      break;
    }
    delta = m.Mark();
    for (Fact& f : pending) {
      bool inserted = false;
      if (!m.TryAddFact(f, &inserted).ok()) return std::nullopt;
      if (m.NumFacts() > max_facts) return std::nullopt;
    }
  }
  // No fixpoint within budget: inconclusive.
  if (!saturated) return std::nullopt;

  if (some_goal_holds(m)) return std::nullopt;
  return m;
}

}  // namespace rbda
