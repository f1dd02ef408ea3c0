#include "core/axiom_rb.h"

#include <set>

#include "runtime/executor.h"

namespace rbda {

AxiomRbSchema BuildAxiomRb(const ServiceSchema& schema) {
  Universe* universe = const_cast<Universe*>(&schema.universe());
  AxiomRbSchema out(universe);
  for (RelationId r : schema.relations()) out.schema.AdoptRelation(r);
  out.schema.constraints() = schema.constraints();

  for (const AccessMethod& method : schema.methods()) {
    bool is_boolean =
        method.input_positions.size() == universe->Arity(method.relation);
    if (!method.HasBound() || is_boolean) {
      RBDA_CHECK(out.schema.AddMethod(method).ok());
      continue;
    }
    uint32_t arity = universe->Arity(method.relation);
    StatusOr<RelationId> view = out.schema.AddRelation(
        universe->RelationName(method.relation) + "__rb__" + method.name,
        arity);
    RBDA_CHECK(view.ok());
    out.view_of.emplace(method.name, *view);

    // Soundness of selection: R__rb__mt(x) -> R(x).
    std::vector<Term> args;
    for (uint32_t p = 0; p < arity; ++p) args.push_back(universe->FreshVariable());
    out.schema.constraints().tgds.emplace_back(Atom(*view, args),
                                               Atom(method.relation, args));

    // Lower-bound axiom (unconditional: no accessibility premise).
    CardinalityRule rule;
    rule.source_rel = method.relation;
    rule.input_positions = method.input_positions;
    rule.target_rel = *view;
    rule.bound = method.bound;
    rule.require_accessible = false;
    out.lower_bound_rules.push_back(std::move(rule));

    // The method keeps its name and inputs, moves to the view, and loses
    // the bound.
    AccessMethod replacement = method;
    replacement.relation = *view;
    replacement.bound_kind = BoundKind::kNone;
    replacement.bound = 0;
    RBDA_CHECK(out.schema.AddMethod(std::move(replacement)).ok());
  }
  return out;
}

Instance MaterializeAxiomRb(const ServiceSchema& original,
                            const AxiomRbSchema& axiom_rb,
                            const Instance& data, AccessSelector* selector) {
  Instance out = data;
  for (const AccessMethod& method : original.methods()) {
    auto view = axiom_rb.view_of.find(method.name);
    if (view == axiom_rb.view_of.end()) continue;
    // Distinct bindings that occur in the data (other bindings return ∅
    // and contribute nothing).
    std::set<std::vector<Term>> bindings;
    for (FactRef f : data.FactsOf(method.relation)) {
      std::vector<Term> binding;
      for (uint32_t p : method.input_positions) binding.push_back(f.arg(p));
      bindings.insert(std::move(binding));
    }
    for (const std::vector<Term>& binding : bindings) {
      std::vector<Fact> matching = MatchingTuples(data, method, binding);
      for (const Fact& f : selector->Choose(method, binding, matching)) {
        out.AddFact(view->second, f.args);
      }
    }
  }
  return out;
}

}  // namespace rbda
