#include "constraints/tgd.h"

#include <algorithm>
#include <iterator>

#include "base/str_util.h"

namespace rbda {

namespace {

// The variables of `atoms`, sorted and deduplicated.
std::vector<Term> SortedVariables(const std::vector<Atom>& atoms) {
  std::vector<Term> vars;
  for (const Atom& a : atoms) {
    for (Term t : a.args) {
      if (t.IsVariable()) vars.push_back(t);
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool Occurs(const Atom& atom, Term t) {
  return std::find(atom.args.begin(), atom.args.end(), t) != atom.args.end();
}

bool Occurs(const std::vector<Atom>& atoms, Term t) {
  return std::any_of(atoms.begin(), atoms.end(),
                     [&](const Atom& a) { return Occurs(a, t); });
}

// True when `guard` holds every variable of `atoms` that `keep` accepts.
template <typename Keep>
bool Covers(const Atom& guard, const std::vector<Atom>& atoms, Keep keep) {
  for (const Atom& a : atoms) {
    for (Term t : a.args) {
      if (t.IsVariable() && !Occurs(guard, t) && keep(t)) return false;
    }
  }
  return true;
}

bool HasConstants(const std::vector<Atom>& atoms) {
  for (const Atom& a : atoms) {
    for (const Term& t : a.args) {
      if (t.IsConstant()) return true;
    }
  }
  return false;
}

bool HasRepeatedVariable(const Atom& atom) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    for (size_t j = i + 1; j < atom.args.size(); ++j) {
      if (atom.args[i] == atom.args[j]) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Term> Tgd::ExportedVariables() const {
  std::vector<Term> body_vars = SortedVariables(body_);
  std::vector<Term> head_vars = SortedVariables(head_);
  std::vector<Term> out;
  std::set_intersection(body_vars.begin(), body_vars.end(),
                        head_vars.begin(), head_vars.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<Term> Tgd::ExistentialVariables() const {
  std::vector<Term> body_vars = SortedVariables(body_);
  std::vector<Term> head_vars = SortedVariables(head_);
  std::vector<Term> out;
  std::set_difference(head_vars.begin(), head_vars.end(), body_vars.begin(),
                      body_vars.end(), std::back_inserter(out));
  return out;
}

size_t Tgd::Width() const {
  // Each exported variable counts at its first occurrence in the head.
  size_t width = 0;
  for (auto h = head_.begin(); h != head_.end(); ++h) {
    for (auto t = h->args.begin(); t != h->args.end(); ++t) {
      if (!t->IsVariable() || !Occurs(body_, *t)) continue;
      const bool seen =
          std::find(h->args.begin(), t, *t) != t ||
          std::any_of(head_.begin(), h,
                      [&](const Atom& a) { return Occurs(a, *t); });
      width += !seen;
    }
  }
  return width;
}

bool Tgd::IsFull() const {
  for (const Atom& h : head_) {
    for (Term t : h.args) {
      if (t.IsVariable() && !Occurs(body_, t)) return false;
    }
  }
  return true;
}

// Without a covering atom, a non-empty body has a variable left out, so
// only an empty body is guarded (and frontier-guarded) by none.
bool Tgd::IsGuarded() const {
  for (const Atom& guard : body_) {
    if (Covers(guard, body_, [](Term) { return true; })) return true;
  }
  return body_.empty();
}

bool Tgd::IsFrontierGuarded() const {
  for (const Atom& guard : body_) {
    if (Covers(guard, head_, [&](Term t) { return Occurs(body_, t); })) {
      return true;
    }
  }
  return body_.empty();
}

bool Tgd::IsLinear() const { return body_.size() == 1; }

bool Tgd::IsId() const {
  if (body_.size() != 1 || head_.size() != 1) return false;
  if (HasConstants(body_) || HasConstants(head_)) return false;
  if (HasRepeatedVariable(body_[0]) || HasRepeatedVariable(head_[0])) {
    return false;
  }
  return true;
}

Tgd Tgd::Substitute(const Substitution& sub) const {
  return Tgd(ApplyToAtoms(sub, body_), ApplyToAtoms(sub, head_));
}

std::string Tgd::ToString(const Universe& universe) const {
  std::vector<std::string> b, h;
  for (const Atom& a : body_) b.push_back(FactToString(a, universe));
  for (const Atom& a : head_) h.push_back(FactToString(a, universe));
  return Join(b, " & ") + " -> " + Join(h, " & ");
}

}  // namespace rbda
