#include "constraints/constraint_set.h"

namespace rbda {

const char* FragmentName(Fragment fragment) {
  switch (fragment) {
    case Fragment::kEmpty:
      return "empty";
    case Fragment::kFdsOnly:
      return "FDs";
    case Fragment::kIdsOnly:
      return "IDs";
    case Fragment::kUidsAndFds:
      return "UIDs+FDs";
    case Fragment::kIdsAndFds:
      return "IDs+FDs";
    case Fragment::kFrontierGuardedTgds:
      return "frontier-guarded TGDs";
    case Fragment::kGeneralTgds:
      return "TGDs";
    case Fragment::kMixed:
      return "mixed";
  }
  return "unknown";
}

bool HasActiveTrigger(const Tgd& tgd, const Instance& data) {
  bool found_active = false;
  ForEachHomomorphism(
      tgd.body(), data, nullptr, [&](const Substitution& sub) {
        // Restrict the trigger to exported variables and try to extend it
        // to the head.
        Substitution seed;
        for (Term x : tgd.ExportedVariables()) {
          seed.emplace(x, ApplyToTerm(sub, x));
        }
        if (!FindHomomorphism(tgd.head(), data, &seed).has_value()) {
          found_active = true;
          return false;  // stop: a violation exists
        }
        return true;
      });
  return found_active;
}

bool ConstraintSet::SatisfiedBy(const Instance& data) const {
  for (const Tgd& tgd : tgds) {
    if (HasActiveTrigger(tgd, data)) return false;
  }
  for (const Fd& fd : fds) {
    if (!fd.SatisfiedBy(data)) return false;
  }
  return true;
}

Fragment ConstraintSet::Classify() const {
  if (Empty()) return Fragment::kEmpty;
  if (tgds.empty()) return Fragment::kFdsOnly;

  bool all_ids = true;
  bool all_uids = true;
  bool all_fg = true;
  for (const Tgd& tgd : tgds) {
    if (!tgd.IsId()) all_ids = false;
    if (!tgd.IsUid()) all_uids = false;
    if (!tgd.IsFrontierGuarded()) all_fg = false;
  }
  if (fds.empty()) {
    if (all_ids) return Fragment::kIdsOnly;
    if (all_fg) return Fragment::kFrontierGuardedTgds;
    return Fragment::kGeneralTgds;
  }
  if (all_uids) return Fragment::kUidsAndFds;
  if (all_ids) return Fragment::kIdsAndFds;
  return Fragment::kMixed;
}

ConstraintSet ConstraintSet::UnionWith(const ConstraintSet& other) const {
  ConstraintSet out = *this;
  out.tgds.insert(out.tgds.end(), other.tgds.begin(), other.tgds.end());
  out.fds.insert(out.fds.end(), other.fds.begin(), other.fds.end());
  return out;
}

std::string ConstraintSet::ToString(const Universe& universe) const {
  std::string out;
  for (const Tgd& tgd : tgds) {
    out += tgd.ToString(universe);
    out += "\n";
  }
  for (const Fd& fd : fds) {
    out += fd.ToString(universe);
    out += "\n";
  }
  return out;
}

}  // namespace rbda
