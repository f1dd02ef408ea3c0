#include "core/linearization.h"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

#include "chase/containment.h"
#include "core/reduction.h"

namespace rbda {

namespace {

PosMask Bit(uint32_t p) { return PosMask(1) << p; }

PosMask FullMask(uint32_t arity) {
  return arity >= 32 ? ~PosMask(0) : ((PosMask(1) << arity) - 1);
}

// |SmallMasks(arity)| at breadth w: the masks with at most w bits set,
// plus the full mask when it has more.
uint64_t NumSmallMasks(uint32_t arity, size_t w) {
  uint64_t count = 0, binomial = 1;  // C(arity, k)
  for (uint32_t k = 0; k <= arity && k <= w; ++k) {
    count += binomial;
    binomial = binomial * (arity - k) / (k + 1);
  }
  return w < arity ? count + 1 : count;
}

// Structural view of an inclusion dependency.
struct IdView {
  RelationId body_rel = 0;
  RelationId head_rel = 0;
  uint32_t body_arity = 0;
  uint32_t head_arity = 0;
  // (body position, head position) per exported variable.
  std::vector<std::pair<uint32_t, uint32_t>> exported;
};

IdView ViewId(const Tgd& tgd) {
  RBDA_CHECK(tgd.IsId());
  IdView view;
  const Atom& body = tgd.body()[0];
  const Atom& head = tgd.head()[0];
  view.body_rel = body.relation;
  view.head_rel = head.relation;
  view.body_arity = static_cast<uint32_t>(body.args.size());
  view.head_arity = static_cast<uint32_t>(head.args.size());
  for (uint32_t bp = 0; bp < body.args.size(); ++bp) {
    for (uint32_t hp = 0; hp < head.args.size(); ++hp) {
      if (body.args[bp] == head.args[hp]) {
        view.exported.emplace_back(bp, hp);
      }
    }
  }
  return view;
}

PosMask PositionMask(const std::vector<uint32_t>& positions) {
  PosMask m = 0;
  for (uint32_t p : positions) m |= Bit(p);
  return m;
}

}  // namespace

TruncatedSaturation::TruncatedSaturation(
    const std::vector<Tgd>& ids, const std::vector<AccessMethod>& methods,
    const Universe& universe, size_t w)
    : small_masks_(kMaxLinearizedArity + 1), w_(w) {
  // Track every relation appearing in the IDs or methods.
  std::vector<RelationId> relations;
  for (const Tgd& tgd : ids) {
    relations.push_back(tgd.body()[0].relation);
    relations.push_back(tgd.head()[0].relation);
  }
  for (const AccessMethod& m : methods) relations.push_back(m.relation);
  std::sort(relations.begin(), relations.end());
  relations.erase(std::unique(relations.begin(), relations.end()),
                  relations.end());
  tracked_.resize(relations.size());
  for (size_t i = 0; i < relations.size(); ++i) {
    Tracked& t = tracked_[i];
    t.relation = relations[i];
    uint32_t arity = universe.Arity(t.relation);
    t.full = FullMask(arity);
    t.premises = SmallMasks(arity);
    t.closures = t.premises;
  }
  // (Access): only non-result-bounded methods make a fact's outputs
  // accessible. Boolean methods have no outputs, so including them is
  // harmless.
  for (const AccessMethod& m : methods) {
    if (m.HasBound() &&
        m.input_positions.size() != universe.Arity(m.relation)) {
      continue;
    }
    tracked_[IndexOf(m.relation)].access_inputs.push_back(
        PositionMask(m.input_positions));
  }
  Saturate(ids);
}

const std::vector<PosMask>& TruncatedSaturation::SmallMasks(uint32_t arity) {
  RBDA_CHECK(arity <= kMaxLinearizedArity);
  std::vector<PosMask>& out = small_masks_[arity];
  if (!out.empty()) return out;
  // Each mask of k + 1 bits grows from the one without its top bit.
  out.push_back(0);
  for (size_t begin = 0, round = 0; round < w_; ++round) {
    size_t end = out.size();
    for (size_t i = begin; i < end; ++i) {
      PosMask m = out[i];
      uint32_t p = m == 0 ? 0 : 32 - std::countl_zero(m);
      for (; p < arity; ++p) out.push_back(m | Bit(p));
    }
    begin = end;
  }
  out.push_back(FullMask(arity));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t TruncatedSaturation::IndexOf(RelationId relation) const {
  auto it = std::lower_bound(
      tracked_.begin(), tracked_.end(), relation,
      [](const Tracked& t, RelationId r) { return t.relation < r; });
  if (it == tracked_.end() || it->relation != relation) return tracked_.size();
  return it - tracked_.begin();
}

PosMask TruncatedSaturation::Expand(const Tracked& tracked,
                                    PosMask start) const {
  PosMask cur = start;
  bool changed = true;
  while (changed) {
    changed = false;
    // (Transitivity) over the tracked derived axioms.
    for (size_t i = 0; i < tracked.premises.size(); ++i) {
      if ((tracked.premises[i] & ~cur) == 0 &&
          (tracked.closures[i] & ~cur) != 0) {
        cur |= tracked.closures[i];
        changed = true;
      }
    }
    // (Access).
    if (cur == tracked.full) continue;
    for (PosMask inputs : tracked.access_inputs) {
      if ((inputs & ~cur) == 0) {
        cur = tracked.full;
        changed = true;
        break;
      }
    }
  }
  return cur;
}

void TruncatedSaturation::Saturate(const std::vector<Tgd>& ids) {
  std::vector<IdView> views;
  views.reserve(ids.size());
  for (const Tgd& tgd : ids) views.push_back(ViewId(tgd));
  // Index of `premise` among `t`'s premises, or -1 when it is untracked.
  auto index_of = [](const Tracked& t, PosMask premise) -> ptrdiff_t {
    auto it = std::lower_bound(t.premises.begin(), t.premises.end(), premise);
    if (it == t.premises.end() || *it != premise) return -1;
    return it - t.premises.begin();
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // Expand every tracked closure in place.
    for (Tracked& t : tracked_) {
      for (PosMask& cl : t.closures) {
        PosMask expanded = Expand(t, cl);
        if (expanded != cl) {
          cl = expanded;
          changed = true;
        }
      }
    }
    // (ID) pullback: a derived axiom on the head relation, restricted to
    // exported positions, pulls back to the body relation.
    for (const IdView& view : views) {
      const Tracked& head = tracked_[IndexOf(view.head_rel)];
      Tracked& body = tracked_[IndexOf(view.body_rel)];
      size_t e = view.exported.size();
      for (PosMask choice = 0; choice < (PosMask(1) << e); ++choice) {
        PosMask head_premise = 0, body_premise = 0;
        for (size_t i = 0; i < e; ++i) {
          if (choice & Bit(i)) {
            body_premise |= Bit(view.exported[i].first);
            head_premise |= Bit(view.exported[i].second);
          }
        }
        ptrdiff_t head_index = index_of(head, head_premise);
        if (head_index < 0) continue;
        PosMask derived_head = head.closures[head_index];
        ptrdiff_t body_index = index_of(body, body_premise);
        RBDA_CHECK(body_index >= 0);
        PosMask& body_cl = body.closures[body_index];
        for (size_t i = 0; i < e; ++i) {
          PosMask head_bit = Bit(view.exported[i].second);
          PosMask body_bit = Bit(view.exported[i].first);
          if ((derived_head & head_bit) && !(body_cl & body_bit)) {
            body_cl |= body_bit;
            changed = true;
          }
        }
      }
    }
  }
}

PosMask TruncatedSaturation::Closure(RelationId relation,
                                     PosMask start) const {
  size_t i = IndexOf(relation);
  return i == tracked_.size() ? start : Expand(tracked_[i], start);
}

StatusOr<LinearizedProblem> LinearizeAnswerability(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const std::vector<LinearizedMethod>& methods,
    const TermSet* accessible_constants) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument("linearization expects a Boolean query");
  }
  std::vector<IdView> views;
  views.reserve(schema.constraints().tgds.size());
  size_t w = 1;
  for (const Tgd& tgd : schema.constraints().tgds) {
    if (!tgd.IsId()) {
      return Status::FailedPrecondition(
          "linearization requires ID constraints only");
    }
    views.push_back(ViewId(tgd));
    w = std::max(w, views.back().exported.size());
  }
  Universe* universe = const_cast<Universe*>(&schema.universe());
  uint64_t num_masks = 0;
  for (RelationId rel : schema.relations()) {
    uint32_t arity = universe->Arity(rel);
    if (arity > kMaxLinearizedArity) {
      return Status::InvalidArgument(
          "linearization handles relations of arity at most " +
          std::to_string(kMaxLinearizedArity) + "; '" +
          universe->RelationName(rel) + "' has arity " +
          std::to_string(arity));
    }
    num_masks += NumSmallMasks(arity, w);
  }
  if (num_masks > kMaxTrackedMasks) {
    return Status::ResourceExhausted(
        "linearization would track " + std::to_string(num_masks) +
        " position masks at ID width " + std::to_string(w) + " (limit " +
        std::to_string(kMaxTrackedMasks) + ")");
  }

  std::vector<AccessMethod> plain_methods;
  for (const LinearizedMethod& lm : methods) plain_methods.push_back(*lm.method);
  TruncatedSaturation saturation(schema.constraints().tgds, plain_methods,
                                 *universe, w);

  // ---- Initial accessibility fixpoint over CanonDB(Q). ----
  Instance canon = q.CanonicalDatabase();
  TermSet accessible =
      accessible_constants != nullptr ? *accessible_constants : q.Constants();
  auto fact_mask = [&](FactRef f) {
    PosMask m = 0;
    for (uint32_t p = 0; p < f.arity(); ++p) {
      if (accessible.count(f.arg(p))) m |= Bit(p);
    }
    return m;
  };
  bool grew = true;
  while (grew) {
    grew = false;
    canon.ForEachFact([&](FactRef f) {
      PosMask cl = saturation.Closure(f.relation(), fact_mask(f));
      for (uint32_t p = 0; p < f.arity(); ++p) {
        if ((cl & Bit(p)) && accessible.insert(f.arg(p)).second) {
          grew = true;
        }
      }
    });
  }

  // ---- Expanded signature. ----
  // R_P and R' are interned on first use and then looked up by (R, P).
  std::unordered_map<uint64_t, RelationId> lin_ids;
  auto lin_rel = [&](RelationId rel, PosMask mask) {
    auto [it, added] = lin_ids.try_emplace(uint64_t{rel} << 32 | mask);
    if (added) {
      StatusOr<RelationId> id = universe->AddRelation(
          universe->RelationName(rel) + "@L" + std::to_string(mask),
          universe->Arity(rel));
      RBDA_CHECK(id.ok());
      it->second = *id;
    }
    return it->second;
  };
  PrimedRelations primed(universe);
  RuleVariables vars(universe);

  LinearizedProblem out;
  std::vector<Tgd> bounded_rules, acyclic_rules;
  // The Lift and Σ' rules have their ID's width, so Σ1's width is w unless
  // a Pair or RB-Choice rule exports more positions.
  size_t w_eff = w;

  // Group the method configs by relation, with their input masks.
  struct MethodConfig {
    const LinearizedMethod* lm;
    PosMask inputs;
    bool bounded;
  };
  std::map<RelationId, std::vector<MethodConfig>> methods_of;
  for (const LinearizedMethod& lm : methods) {
    const AccessMethod& m = *lm.method;
    bool is_boolean = m.input_positions.size() == universe->Arity(m.relation);
    methods_of[m.relation].push_back(
        {&lm, PositionMask(m.input_positions), m.HasBound() && !is_boolean});
  }

  std::vector<PosMask> masks;
  for (RelationId rel : schema.relations()) {
    uint32_t arity = universe->Arity(rel);
    // The small masks plus those that occur at level 0 (may exceed w).
    masks = saturation.SmallMasks(arity);
    FactRange level0 = canon.FactsOf(rel);
    if (!level0.empty()) {
      for (FactRef f : level0) masks.push_back(fact_mask(f));
      std::sort(masks.begin(), masks.end());
      masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
    }
    RelationId rel_primed = primed(rel);

    // Pair relations (RB-Choice regime): one per visible bounded method,
    // with their two unpacking rules (emitted once).
    std::map<const LinearizedMethod*, RelationId> pair_rel;
    auto mit = methods_of.find(rel);
    if (mit != methods_of.end()) {
      for (const MethodConfig& config : mit->second) {
        if (!config.bounded || !config.lm->visible_outputs) continue;
        StatusOr<RelationId> pr = universe->AddRelation(
            universe->RelationName(rel) + "@pair@" + config.lm->method->name,
            arity);
        RBDA_CHECK(pr.ok());
        pair_rel[config.lm] = *pr;
        std::vector<Term> args = vars.Take(0, arity);
        // Pair(w) -> R_full(w): the returned tuple is fully accessible.
        bounded_rules.emplace_back(Atom(*pr, args),
                                   Atom(lin_rel(rel, FullMask(arity)), args));
        w_eff = std::max<size_t>(w_eff, arity);
        // Pair(w) -> R'(w).
        acyclic_rules.emplace_back(Atom(*pr, args), Atom(rel_primed, args));
      }
    }

    for (PosMask mask : masks) {
      PosMask cl = saturation.Closure(rel, mask);
      RelationId subscripted = lin_rel(rel, mask);

      // (Lift) per ID with this body relation.
      for (const IdView& view : views) {
        if (view.body_rel != rel) continue;
        std::vector<Term> body_args = vars.Take(0, view.body_arity);
        PosMask head_mask = 0;
        std::vector<Term> head_args =
            vars.Take(view.body_arity, view.head_arity);
        for (const auto& [bp, hp] : view.exported) {
          head_args[hp] = body_args[bp];
          if (cl & Bit(bp)) head_mask |= Bit(hp);
        }
        bounded_rules.emplace_back(
            Atom(subscripted, std::move(body_args)),
            Atom(lin_rel(view.head_rel, head_mask), std::move(head_args)));
      }

      // (Transfer) / (RB-Transfer) / (RB-Choice) per method.
      if (mit == methods_of.end()) continue;
      for (const MethodConfig& config : mit->second) {
        if ((config.inputs & ~cl) != 0) continue;  // inputs not accessible
        const LinearizedMethod* lm = config.lm;
        std::vector<Term> body_args = vars.Take(0, arity);
        if (!config.bounded) {
          acyclic_rules.emplace_back(Atom(subscripted, body_args),
                                     Atom(rel_primed, body_args));
        } else if (!lm->visible_outputs) {
          // E.5.2: R_P(x,y) -> ∃z R'(x,z).
          std::vector<Term> head_args = vars.Take(arity, arity);
          for (uint32_t p : lm->method->input_positions) {
            head_args[p] = body_args[p];
          }
          acyclic_rules.emplace_back(
              Atom(subscripted, std::move(body_args)),
              Atom(rel_primed, std::move(head_args)));
        } else {
          // RB-Choice: R_P(u) -> ∃z Pair(v), keeping the kept positions.
          std::vector<Term> head_args = vars.Take(arity, arity);
          for (uint32_t p : lm->kept_positions) head_args[p] = body_args[p];
          bounded_rules.emplace_back(
              Atom(subscripted, std::move(body_args)),
              Atom(pair_rel.at(lm), std::move(head_args)));
          w_eff = std::max<size_t>(
              w_eff, std::popcount(PositionMask(lm->kept_positions)));
        }
      }
    }
  }

  // (Σ') primed copies of the IDs.
  for (const IdView& view : views) {
    std::vector<Term> body_args = vars.Take(0, view.body_arity);
    std::vector<Term> head_args = vars.Take(view.body_arity, view.head_arity);
    for (const auto& [bp, hp] : view.exported) head_args[hp] = body_args[bp];
    bounded_rules.emplace_back(
        Atom(primed(view.body_rel), std::move(body_args)),
        Atom(primed(view.head_rel), std::move(head_args)));
  }

  // ---- Initial instance. ----
  canon.ForEachFact([&](FactRef f) {
    PosMask acc_mask = fact_mask(f);
    uint32_t arity = f.arity();
    // All sub-masks of size ≤ w, plus the exact mask.
    for (PosMask m : saturation.SmallMasks(arity)) {
      out.start.AddRow(lin_rel(f.relation(), m & acc_mask), f.args());
    }
    out.start.AddRow(lin_rel(f.relation(), acc_mask), f.args());

    // Direct level-0 transfers (accessibility of level-0 facts is fully
    // described by acc_mask, which the fixpoint above already closed).
    auto m_it = methods_of.find(f.relation());
    if (m_it == methods_of.end()) return;
    for (const MethodConfig& config : m_it->second) {
      if ((config.inputs & ~acc_mask) != 0) continue;
      const LinearizedMethod* lm = config.lm;
      RelationId rel_primed = primed(f.relation());
      if (!config.bounded) {
        out.start.AddRow(rel_primed, f.args());
      } else if (!lm->visible_outputs) {
        std::vector<Term> args(arity);
        for (uint32_t p = 0; p < arity; ++p) args[p] = universe->FreshNull();
        for (uint32_t p : lm->method->input_positions) args[p] = f.arg(p);
        out.start.AddFact(rel_primed, std::move(args));
      } else {
        std::vector<Term> args(arity);
        for (uint32_t p = 0; p < arity; ++p) args[p] = universe->FreshNull();
        for (uint32_t p : lm->kept_positions) args[p] = f.arg(p);
        out.start.AddFact(lin_rel(f.relation(), FullMask(arity)), args);
        out.start.AddFact(rel_primed, args);
      }
    }
  });

  // ---- Goal and depth bound. ----
  out.goal = PrimeQuery(&primed, q).atoms();

  size_t max_arity = 2;
  for (RelationId rel : schema.relations()) {
    max_arity = std::max<size_t>(max_arity, universe->Arity(rel));
  }
  out.effective_width = w_eff;
  out.num_rules_bounded = bounded_rules.size();
  out.num_rules_acyclic = acyclic_rules.size();
  out.jk_depth_bound =
      JohnsonKlugDepthBound(out.goal.size(), bounded_rules.size(),
                            acyclic_rules.size(), max_arity, w_eff);

  out.tgds = std::move(bounded_rules);
  out.tgds.insert(out.tgds.end(),
                  std::make_move_iterator(acyclic_rules.begin()),
                  std::make_move_iterator(acyclic_rules.end()));
  return out;
}

}  // namespace rbda
