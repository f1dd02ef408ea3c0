// A set of integrity constraints (TGDs + FDs) and its syntactic
// classification into the fragments of the paper's Table 1.
#ifndef RBDA_CONSTRAINTS_CONSTRAINT_SET_H_
#define RBDA_CONSTRAINTS_CONSTRAINT_SET_H_

#include <string>
#include <vector>

#include "constraints/fd.h"
#include "constraints/tgd.h"

namespace rbda {

/// Constraint fragments in increasing expressiveness order, mirroring the
/// rows of Table 1.
enum class Fragment {
  kEmpty,                // no constraints
  kFdsOnly,              // functional dependencies only
  kIdsOnly,              // inclusion dependencies only
  kUidsAndFds,           // unary IDs + FDs
  kIdsAndFds,            // IDs + FDs (no general result in the paper)
  kFrontierGuardedTgds,  // FGTGDs (no FDs)
  kGeneralTgds,          // arbitrary TGDs (no FDs)
  kMixed,                // anything else
};

const char* FragmentName(Fragment fragment);

struct ConstraintSet {
  std::vector<Tgd> tgds;
  std::vector<Fd> fds;

  bool Empty() const { return tgds.empty() && fds.empty(); }
  size_t Size() const { return tgds.size() + fds.size(); }

  /// True if every TGD and FD holds in `data`.
  bool SatisfiedBy(const Instance& data) const;

  /// Syntactic classification (most specific fragment that applies).
  Fragment Classify() const;

  /// Concatenates two constraint sets.
  ConstraintSet UnionWith(const ConstraintSet& other) const;

  std::string ToString(const Universe& universe) const;
};

/// True if the TGD `tgd` has an active trigger in `data` (a body match with
/// no head extension), i.e. the TGD is violated.
bool HasActiveTrigger(const Tgd& tgd, const Instance& data);

}  // namespace rbda

#endif  // RBDA_CONSTRAINTS_CONSTRAINT_SET_H_
