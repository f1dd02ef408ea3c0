// Tuple-generating dependencies (paper §2).
//
// A TGD is ∀x (body(x) → ∃y head(x,y)) with body and head conjunctions of
// relational atoms. Exported variables are body variables that occur in the
// head; head-only variables are existentially quantified. The class also
// provides the syntactic classification used throughout the paper: full,
// guarded, frontier-guarded, inclusion dependency (ID), unary ID, linear,
// and the width of an ID.
#ifndef RBDA_CONSTRAINTS_TGD_H_
#define RBDA_CONSTRAINTS_TGD_H_

#include <string>
#include <vector>

#include "logic/homomorphism.h"

namespace rbda {

class Tgd {
 public:
  Tgd() = default;
  Tgd(std::vector<Atom> body, std::vector<Atom> head)
      : body_(std::move(body)), head_(std::move(head)) {}
  /// A single-atom rule. Both atoms are moved in: a braced vector would
  /// copy each atom's arguments out of its initializer list.
  Tgd(Atom body, Atom head) {
    body_.push_back(std::move(body));
    head_.push_back(std::move(head));
  }

  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Atom>& head() const { return head_; }

  /// Body variables that occur in the head, sorted.
  std::vector<Term> ExportedVariables() const;
  /// Head variables not in the body (existentially quantified), sorted.
  std::vector<Term> ExistentialVariables() const;

  /// No existential variables in the head.
  bool IsFull() const;
  /// Some body atom contains every body variable.
  bool IsGuarded() const;
  /// Some body atom contains every exported variable.
  bool IsFrontierGuarded() const;
  /// Single body atom (repetitions allowed).
  bool IsLinear() const;
  /// Single body atom, single head atom, no repeated variables on either
  /// side, and no constants: an inclusion dependency.
  bool IsId() const;
  /// Number of exported variables (meaningful for IDs; defined generally).
  size_t Width() const;
  /// An ID of width 1.
  bool IsUid() const { return IsId() && Width() == 1; }

  /// Renames all variables via `sub` (e.g. freshening apart).
  Tgd Substitute(const Substitution& sub) const;

  std::string ToString(const Universe& universe) const;

  bool operator==(const Tgd& o) const {
    return body_ == o.body_ && head_ == o.head_;
  }

 private:
  std::vector<Atom> body_;
  std::vector<Atom> head_;
};

}  // namespace rbda

#endif  // RBDA_CONSTRAINTS_TGD_H_
