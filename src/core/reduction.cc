#include "core/reduction.h"

#include <algorithm>

#include "constraints/fd_reasoning.h"
#include "logic/conjunctive_query.h"

namespace rbda {

RelationId PrimedRelation(Universe* universe, RelationId relation) {
  StatusOr<RelationId> id = universe->AddRelation(
      universe->RelationName(relation) + "@p", universe->Arity(relation));
  RBDA_CHECK(id.ok());
  return *id;
}

RelationId PrimedRelations::operator()(RelationId relation) {
  if (relation >= ids_.size()) ids_.resize(relation + 1, kUnset);
  if (ids_[relation] == kUnset) {
    ids_[relation] = PrimedRelation(universe_, relation);
  }
  return ids_[relation];
}

std::vector<Term> RuleVariables::Take(size_t offset, uint32_t n) {
  while (pool_.size() < offset + n) pool_.push_back(universe_->FreshVariable());
  return std::vector<Term>(pool_.begin() + offset, pool_.begin() + offset + n);
}

namespace {

RelationId AccessedRelation(Universe* universe, RelationId relation) {
  StatusOr<RelationId> id = universe->AddRelation(
      universe->RelationName(relation) + "@acc", universe->Arity(relation));
  RBDA_CHECK(id.ok());
  return *id;
}

std::vector<Atom> PrimeAtoms(PrimedRelations* primed,
                             const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const Atom& a : atoms) out.emplace_back((*primed)(a.relation), a.args);
  return out;
}

}  // namespace

ConjunctiveQuery PrimeQuery(PrimedRelations* primed,
                            const ConjunctiveQuery& q) {
  return ConjunctiveQuery(PrimeAtoms(primed, q.atoms()), q.free_variables());
}

ConstraintSet PrimeConstraints(PrimedRelations* primed,
                               const ConstraintSet& sigma) {
  ConstraintSet out;
  out.tgds.reserve(sigma.tgds.size());
  for (const Tgd& tgd : sigma.tgds) {
    out.tgds.emplace_back(PrimeAtoms(primed, tgd.body()),
                          PrimeAtoms(primed, tgd.head()));
  }
  for (const Fd& fd : sigma.fds) {
    Fd primed_fd = fd;
    primed_fd.relation = (*primed)(fd.relation);
    out.fds.push_back(std::move(primed_fd));
  }
  return out;
}

StatusOr<AmonDetReduction> BuildAmonDetReduction(
    const ServiceSchema& schema, const ConjunctiveQuery& q,
    const ReductionOptions& options, const TermSet* accessible_constants) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument(
        "the reduction handles Boolean queries; freeze free variables first");
  }
  Universe* universe = const_cast<Universe*>(&schema.universe());

  AmonDetReduction red;
  red.q = q;
  PrimedRelations primed(universe);
  red.q_prime = PrimeQuery(&primed, q);

  StatusOr<RelationId> acc = universe->AddRelation("@accessible", 1);
  RBDA_CHECK(acc.ok());
  red.accessible_rel = *acc;

  // Σ and Σ'.
  red.gamma = schema.constraints().UnionWith(
      PrimeConstraints(&primed, schema.constraints()));
  for (RelationId r : schema.relations()) red.primed.emplace(r, primed(r));
  if (options.drop_fds) red.gamma.fds.clear();

  RuleVariables vars(universe);

  // Accessibility axioms per method.
  for (const AccessMethod& method : schema.methods()) {
    RelationId r = method.relation;
    uint32_t arity = universe->Arity(r);
    bool is_boolean = method.input_positions.size() == arity;
    bool bounded = method.HasBound() && !is_boolean;

    // Shared body scaffolding: R(x, y) with accessibility atoms on inputs.
    std::vector<Term> args = vars.Take(0, arity);
    std::vector<Atom> body;
    for (uint32_t p : method.input_positions) {
      body.emplace_back(red.accessible_rel, std::vector<Term>{args[p]});
    }
    body.emplace_back(r, args);

    if (options.mode == ReductionMode::kNaive) {
      auto accessed = red.accessed.find(r);
      if (accessed == red.accessed.end()) {
        accessed = red.accessed.emplace(r, AccessedRelation(universe, r)).first;
      }
      RelationId r_acc = accessed->second;
      if (!bounded) {
        size_t idx = red.gamma.tgds.size();
        red.gamma.tgds.emplace_back(
            std::move(body), std::vector<Atom>{Atom(r_acc, args)});
        red.axiom_method.emplace(idx, method.name);
      } else {
        CardinalityRule rule;
        rule.source_rel = r;
        rule.input_positions = method.input_positions;
        rule.target_rel = r_acc;
        rule.bound = method.bound;
        rule.accessible_rel = red.accessible_rel;
        red.cardinality_rules.push_back(std::move(rule));
      }
      continue;
    }

    // kRewritten mode.
    if (!bounded) {
      // acc(x) ∧ R(x,y) → R'(x,y) ∧ acc(y).
      std::vector<Atom> head;
      head.emplace_back(red.primed.at(r), args);
      for (uint32_t p : method.OutputPositions(*universe)) {
        head.emplace_back(red.accessible_rel, std::vector<Term>{args[p]});
      }
      size_t idx = red.gamma.tgds.size();
      red.gamma.tgds.emplace_back(std::move(body), std::move(head));
      red.axiom_method.emplace(idx, method.name);
    } else {
      if (method.bound != 1) {
        return Status::FailedPrecondition(
            "rewritten reduction requires result bounds of 1 (method '" +
            method.name + "' has bound " + std::to_string(method.bound) +
            "); apply a simplification first");
      }
      // acc(x) ∧ R(x,y) → ∃z R(x,d,z) ∧ R'(x,d,z) ∧ acc(d,z) where d are
      // the determined positions (empty unless export_determined).
      std::vector<uint32_t> kept = method.input_positions;
      if (options.export_determined) {
        kept = DetBy(schema.constraints().fds, r, method.input_positions);
      }
      std::vector<Term> head_args = vars.Take(arity, arity);
      for (uint32_t p : kept) head_args[p] = args[p];
      std::vector<Atom> head;
      head.emplace_back(r, head_args);
      head.emplace_back(red.primed.at(r), head_args);
      // The returned tuple is fully visible: every non-input value of the
      // head becomes accessible.
      for (uint32_t p = 0; p < arity; ++p) {
        if (!std::binary_search(method.input_positions.begin(),
                                method.input_positions.end(), p)) {
          head.emplace_back(red.accessible_rel,
                            std::vector<Term>{head_args[p]});
        }
      }
      size_t idx = red.gamma.tgds.size();
      red.gamma.tgds.emplace_back(std::move(body), std::move(head));
      red.axiom_method.emplace(idx, method.name);
    }
  }

  // Naive mode: R_Accessed(w) → R(w) ∧ R'(w) ∧ acc(w).
  if (options.mode == ReductionMode::kNaive) {
    for (const auto& [r, r_acc] : red.accessed) {
      uint32_t arity = universe->Arity(r);
      std::vector<Term> args = vars.Take(0, arity);
      std::vector<Atom> head;
      head.emplace_back(r, args);
      head.emplace_back(red.primed.at(r), args);
      for (uint32_t p = 0; p < arity; ++p) {
        head.emplace_back(red.accessible_rel, std::vector<Term>{args[p]});
      }
      red.gamma.tgds.emplace_back(
          std::vector<Atom>{Atom(r_acc, args)}, std::move(head));
    }
  }

  // Start instance: CanonDB(q) plus accessibility of the query's constants
  // (the plan may use them as bindings).
  red.start = q.CanonicalDatabase();
  if (accessible_constants != nullptr) {
    for (Term c : *accessible_constants) {
      red.start.AddFact(red.accessible_rel, {c});
    }
  } else {
    for (Term c : q.Constants()) {
      red.start.AddFact(red.accessible_rel, {c});
    }
  }
  return red;
}

}  // namespace rbda
