#include "core/simplification.h"

#include <algorithm>

#include "constraints/fd_reasoning.h"

namespace rbda {

ServiceSchema ElimUB(const ServiceSchema& schema) {
  ServiceSchema result = schema;
  for (AccessMethod& m : result.mutable_methods()) {
    if (m.bound_kind == BoundKind::kResultBound) {
      m.bound_kind = BoundKind::kResultLowerBound;
    }
  }
  return result;
}

ServiceSchema ChoiceSimplification(const ServiceSchema& schema) {
  ServiceSchema result = schema;
  for (AccessMethod& m : result.mutable_methods()) {
    if (m.HasBound()) m.bound = 1;
  }
  return result;
}

std::vector<uint32_t> DetByMethod(const ServiceSchema& schema,
                                  const AccessMethod& method) {
  return DetBy(schema.constraints().fds, method.relation,
               method.input_positions);
}

namespace {

// Shared scaffolding for the existence-check and FD simplifications: the
// view relation keeps `kept_positions` of R; the replacement method's
// inputs are the view positions holding mt's original inputs.
ServiceSchema ViewSimplification(const ServiceSchema& schema,
                                 bool keep_determined,
                                 const char* method_suffix) {
  Universe* universe = const_cast<Universe*>(&schema.universe());
  ServiceSchema out(universe);
  for (RelationId r : schema.relations()) out.AdoptRelation(r);
  out.constraints() = schema.constraints();

  for (const AccessMethod& method : schema.methods()) {
    if (!method.HasBound()) {
      RBDA_CHECK(out.AddMethod(method).ok());
      continue;
    }
    // Positions of R kept in the view: inputs only (existence check) or
    // DetBy(mt) (FD simplification). DetBy always contains the inputs.
    std::vector<uint32_t> kept = keep_determined
                                     ? DetByMethod(schema, method)
                                     : method.input_positions;
    std::string view_name = universe->RelationName(method.relation) + "__" +
                            method.name;
    StatusOr<RelationId> view = out.AddRelation(
        view_name, static_cast<uint32_t>(kept.size()));
    RBDA_CHECK(view.ok());

    // Variables x0..x(arity-1) tied to the positions of R.
    uint32_t arity = universe->Arity(method.relation);
    std::vector<Term> r_args;
    for (uint32_t p = 0; p < arity; ++p) {
      r_args.push_back(universe->FreshVariable());
    }
    std::vector<Term> view_args;
    for (uint32_t p : kept) view_args.push_back(r_args[p]);

    // R(x, y) -> R_mt(x)   and   R_mt(x) -> ∃y R(x, y).
    out.constraints().tgds.emplace_back(Atom(method.relation, r_args),
                                        Atom(*view, view_args));
    out.constraints().tgds.emplace_back(Atom(*view, view_args),
                                        Atom(method.relation, r_args));

    // Replacement method: inputs are the view positions that correspond to
    // mt's input positions.
    AccessMethod replacement;
    replacement.name = method.name + method_suffix;
    replacement.relation = *view;
    for (uint32_t i = 0; i < kept.size(); ++i) {
      if (std::binary_search(method.input_positions.begin(),
                             method.input_positions.end(), kept[i])) {
        replacement.input_positions.push_back(i);
      }
    }
    RBDA_CHECK(out.AddMethod(std::move(replacement)).ok());
  }
  return out;
}

}  // namespace

ServiceSchema ExistenceCheckSimplification(const ServiceSchema& schema) {
  return ViewSimplification(schema, /*keep_determined=*/false, "__exists");
}

ServiceSchema FdSimplification(const ServiceSchema& schema) {
  return ViewSimplification(schema, /*keep_determined=*/true, "__det");
}

}  // namespace rbda
