// Property test of the TGD variable analysis: over random TGDs with
// repeated variables, constants, and multi-atom bodies and heads, the
// exported and existential variables, guardedness, frontier-guardedness,
// width and fragment classification must equal a reference built from
// TermSets, and a compiled plan's existential slots must follow
// ExistentialVariables() order.
#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/trigger_plan.h"
#include "constraints/constraint_set.h"
#include "constraints/tgd.h"
#include "data/universe.h"
#include "gtest/gtest.h"

namespace rbda {
namespace {

TermSet VariablesOf(const std::vector<Atom>& atoms) {
  TermSet vars;
  for (const Atom& a : atoms) {
    for (Term t : a.args) {
      if (t.IsVariable()) vars.insert(t);
    }
  }
  return vars;
}

std::vector<Term> Sorted(const TermSet& set) {
  std::vector<Term> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Term> RefExported(const Tgd& tgd) {
  TermSet body = VariablesOf(tgd.body());
  TermSet head = VariablesOf(tgd.head());
  TermSet out;
  for (Term t : body) {
    if (head.count(t)) out.insert(t);
  }
  return Sorted(out);
}

std::vector<Term> RefExistential(const Tgd& tgd) {
  TermSet body = VariablesOf(tgd.body());
  TermSet out;
  for (Term t : VariablesOf(tgd.head())) {
    if (!body.count(t)) out.insert(t);
  }
  return Sorted(out);
}

// Some body atom holds all of `vars`; with no body atom, `vars` is empty.
bool RefSomeAtomHolds(const Tgd& tgd, const TermSet& vars) {
  for (const Atom& a : tgd.body()) {
    TermSet atom_vars = VariablesOf({a});
    if (std::all_of(vars.begin(), vars.end(),
                    [&](Term t) { return atom_vars.count(t) > 0; })) {
      return true;
    }
  }
  return vars.empty();
}

bool RefGuarded(const Tgd& tgd) {
  return RefSomeAtomHolds(tgd, VariablesOf(tgd.body()));
}

bool RefFrontierGuarded(const Tgd& tgd) {
  std::vector<Term> exported = RefExported(tgd);
  return RefSomeAtomHolds(tgd, TermSet(exported.begin(), exported.end()));
}

bool RefUid(const Tgd& tgd) {
  return tgd.IsId() && RefExported(tgd).size() == 1;
}

// Classify's decision, over the reference predicates.
Fragment RefClassify(const ConstraintSet& cs) {
  if (cs.Empty()) return Fragment::kEmpty;
  if (cs.tgds.empty()) return Fragment::kFdsOnly;
  bool all_ids = true;
  bool all_uids = true;
  bool all_fg = true;
  for (const Tgd& tgd : cs.tgds) {
    all_ids &= tgd.IsId();
    all_uids &= RefUid(tgd);
    all_fg &= RefFrontierGuarded(tgd);
  }
  if (cs.fds.empty()) {
    if (all_ids) return Fragment::kIdsOnly;
    if (all_fg) return Fragment::kFrontierGuardedTgds;
    return Fragment::kGeneralTgds;
  }
  if (all_uids) return Fragment::kUidsAndFds;
  if (all_ids) return Fragment::kIdsAndFds;
  return Fragment::kMixed;
}

class TgdAnalysisProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    for (uint32_t arity = 0; arity <= 3; ++arity) {
      relations_.push_back(
          *universe_.AddRelation("R" + std::to_string(arity), arity));
    }
    for (int i = 0; i < 6; ++i) {
      vars_.push_back(universe_.Variable("v" + std::to_string(i)));
    }
    for (int i = 0; i < 2; ++i) {
      constants_.push_back(universe_.Constant("c" + std::to_string(i)));
    }
  }

  // Arguments from a small pool, so variables repeat within and across
  // atoms; one in five is a constant.
  Atom RandomAtom(Rng* rng) {
    RelationId rel = relations_[rng->Below(relations_.size())];
    std::vector<Term> args;
    for (uint32_t p = 0; p < universe_.Arity(rel); ++p) {
      args.push_back(rng->Chance(1, 5)
                         ? constants_[rng->Below(constants_.size())]
                         : vars_[rng->Below(vars_.size())]);
    }
    return Atom(rel, std::move(args));
  }

  // An ID: one atom each side, distinct variables, no constants.
  Tgd RandomId(Rng* rng) {
    std::vector<Term> pool = vars_;
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng->Below(i)]);
    }
    RelationId body_rel = relations_[1 + rng->Below(3)];
    RelationId head_rel = relations_[1 + rng->Below(3)];
    std::vector<Term> body(pool.begin(),
                           pool.begin() + universe_.Arity(body_rel));
    std::vector<Term> head;
    for (uint32_t p = 0; p < universe_.Arity(head_rel); ++p) {
      head.push_back(pool[rng->Below(pool.size())]);
      while (std::count(head.begin(), head.end(), head.back()) > 1) {
        head.back() = pool[rng->Below(pool.size())];
      }
    }
    return Tgd(Atom(body_rel, std::move(body)),
               Atom(head_rel, std::move(head)));
  }

  Tgd RandomTgd(Rng* rng) {
    if (rng->Chance(1, 3)) return RandomId(rng);
    std::vector<Atom> body;
    std::vector<Atom> head;
    for (uint64_t n = rng->Below(4); n > 0; --n) {
      body.push_back(RandomAtom(rng));
    }
    for (uint64_t n = 1 + rng->Below(3); n > 0; --n) {
      head.push_back(RandomAtom(rng));
    }
    return Tgd(std::move(body), std::move(head));
  }

  Universe universe_;
  std::vector<RelationId> relations_;
  std::vector<Term> vars_;
  std::vector<Term> constants_;
};

TEST_P(TgdAnalysisProperty, MatchesTermSetReference) {
  Rng rng(GetParam() * 7919 + 11);
  for (int i = 0; i < 200; ++i) {
    Tgd tgd = RandomTgd(&rng);
    SCOPED_TRACE(tgd.ToString(universe_));
    std::vector<Term> existential = RefExistential(tgd);
    EXPECT_EQ(tgd.ExportedVariables(), RefExported(tgd));
    EXPECT_EQ(tgd.ExistentialVariables(), existential);
    EXPECT_EQ(tgd.IsFull(), existential.empty());
    EXPECT_EQ(tgd.IsGuarded(), RefGuarded(tgd));
    EXPECT_EQ(tgd.IsFrontierGuarded(), RefFrontierGuarded(tgd));
    EXPECT_EQ(tgd.Width(), RefExported(tgd).size());
    EXPECT_EQ(tgd.IsUid(), RefUid(tgd));

    // The plan's existential slots, after its body slots, in
    // ExistentialVariables() order.
    CompiledTgd plan(tgd);
    ASSERT_EQ(plan.num_slots() - plan.num_body_slots(), existential.size());
    std::vector<Term> slots;
    for (uint32_t s = 0; s < plan.num_slots(); ++s) {
      slots.push_back(Term::Null(s));
    }
    Substitution bindings = plan.Bindings(slots.data());
    for (size_t k = 0; k < existential.size(); ++k) {
      EXPECT_EQ(bindings.at(existential[k]),
                Term::Null(plan.num_body_slots() + k));
    }
  }
}

TEST_P(TgdAnalysisProperty, ClassifyMatchesTheReference) {
  Rng rng(GetParam() * 104729 + 3);
  for (int i = 0; i < 100; ++i) {
    ConstraintSet cs;
    // Half the sets hold IDs only, so the ID fragments show up.
    const bool ids_only = rng.Chance(1, 2);
    for (uint64_t n = rng.Below(4); n > 0; --n) {
      cs.tgds.push_back(ids_only ? RandomId(&rng) : RandomTgd(&rng));
    }
    if (rng.Chance(1, 2)) {
      cs.fds.emplace_back(relations_[2], std::vector<uint32_t>{0}, 1);
    }
    EXPECT_EQ(cs.Classify(), RefClassify(cs)) << cs.ToString(universe_);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TgdAnalysisProperty,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace rbda
