// table1: the paper's Table 1 validation rows made steady. One caller in a
// closed loop decides each generated schema in original and simplified
// form, with the ID, bounded-width-ID, FD and UID+FD generators
// parameterized exactly as bench/table1_summary.cpp does, but over
// generator seeds 1..750 instead of 1..25, so the Johnson-Klug tail is
// spread over thousands of decides instead of two. Simplification runs in
// the timed phase; no text is parsed.
//
// Like table1_summary's, the seed set is fixed: the workload seed does not
// change it. Disjoint seed ranges differ in how many decides run into the
// 10,000-fact JK budget, and those few decides take a large share of the
// time, so a seed-dependent set made ops_per_s a property of the seed.
#include <memory>
#include <vector>

#include "core/simplification.h"
#include "harness.h"
#include "obs/json.h"
#include "paper_examples.h"
#include "parser/serializer.h"
#include "runtime/schema_generators.h"

namespace perfbench {
namespace {

constexpr uint64_t kSeedsPerRow = 750;

enum Row { kIds, kBwIds, kFds, kUidFds, kNumRows };
constexpr const char* kRowNames[kNumRows] = {"ids", "bwids", "fds",
                                             "uidfds"};

// table1_summary's JK depth cap; the linear fact budget is fixed here so
// the tail a single decide can reach is bounded.
rbda::DecisionOptions Budgets() {
  rbda::DecisionOptions options;
  options.linear_depth_cap = 800;
  options.linear_max_facts = 10000;
  return options;
}

struct Item {
  Row row;
  std::unique_ptr<rbda::Universe> universe;
  rbda::ServiceSchema schema;
  rbda::ConjunctiveQuery query;
};

// One Table 1 validation schema: row `row` at generator seed `s`, as
// table1_summary builds it.
Item Generate(Row row, uint64_t s) {
  auto universe = std::make_unique<rbda::Universe>();
  rbda::SchemaFamilyOptions fam;
  fam.num_relations = 3;
  fam.max_arity = 3;
  fam.num_constraints = 3;
  fam.num_methods = 3;
  uint64_t rng_seed = s;
  const char* prefix = "I";
  size_t query_variables = 3;
  switch (row) {
    case kIds:
      break;
    case kBwIds:
      rng_seed = s * 5 + 2;
      prefix = "W";
      fam.num_constraints = 4;
      fam.max_id_width = 1;
      break;
    case kFds:
      rng_seed = s * 7 + 3;
      prefix = "D";
      break;
    default:
      rng_seed = s * 11 + 5;
      prefix = "M";
      fam.max_arity = 2;
      query_variables = 2;
      break;
  }
  fam.prefix = prefix + std::to_string(s);
  rbda::Rng rng(rng_seed);
  rbda::ServiceSchema schema =
      row == kFds      ? rbda::GenerateFdSchema(universe.get(), fam, &rng)
      : row == kUidFds ? rbda::GenerateUidFdSchema(universe.get(), fam, &rng)
                       : rbda::GenerateIdSchema(universe.get(), fam, &rng);
  rbda::ConjunctiveQuery q =
      rbda::GenerateQuery(schema, 2, query_variables, &rng);
  return Item{row, std::move(universe), std::move(schema), std::move(q)};
}

// The simplification Table 1 validates for the row.
rbda::ServiceSchema Simplify(const Item& item) {
  switch (item.row) {
    case kIds:
    case kBwIds:
      return rbda::ExistenceCheckSimplification(item.schema);
    case kFds:
      return rbda::FdSimplification(item.schema);
    default:
      return rbda::ChoiceSimplification(item.schema);
  }
}

class Table1 : public DecideWorkload {
 public:
  Table1() {
    // The FD row decides the simplified schema with the assumption-free
    // naive reduction, as table1_summary does.
    naive_.force_naive = true;
  }

  std::string Setup() override {
    Regenerate();
    Fingerprint fingerprint;
    for (const Item& item : items_) {
      fingerprint.Add(
          rbda::SerializeDocument(item.schema, {{"Q", item.query}}));
    }
    verdicts_.assign(2 * items_.size(), Verdict{});
    return fingerprint.Hex();
  }

  size_t NumOps() const override { return 2 * items_.size(); }

  // Operation 2k decides item k as generated; operation 2k+1 simplifies it
  // and decides the result.
  OpSample Run(size_t i, TierProbe* probe, SpanLog* spans,
               uint64_t op_id) override {
    const Item& item = items_[i / 2];
    const bool simplified = i % 2 == 1;
    if (probe != nullptr) probe->Before();
    const uint64_t start = NowNs();
    rbda::StatusOr<rbda::Decision> d = rbda::Status::Internal("unset");
    uint64_t simplify_end = start;
    if (!simplified) {
      d = rbda::DecideMonotoneAnswerability(item.schema, item.query,
                                            options_);
    } else {
      rbda::ServiceSchema schema = Simplify(item);
      simplify_end = NowNs();
      d = rbda::DecideMonotoneAnswerability(
          schema, item.query, item.row == kFds ? naive_ : options_);
    }
    const uint64_t end = NowNs();
    if (probe != nullptr) probe->After(d);
    if (spans != nullptr) {
      if (simplified) spans->Record(op_id, "simplify", start, simplify_end);
      spans->Record(op_id, "decide", simplify_end, end);
    }
    verdicts_[i] = VerdictOf(d);
    return OpSample{end - start, OutcomeOf(d)};
  }

  // Decides mint fresh terms into each schema's Universe, so every pass
  // starts from freshly generated schemas; memory then does not grow with
  // the number of passes.
  void BetweenPasses() override { Regenerate(); }

  bool Gate() override {
    // Original and simplified must agree wherever both are definite.
    struct Tally {
      uint64_t agree = 0, compared = 0, decided = 0, total = 0;
    } rows[kNumRows];
    for (size_t k = 0; k < items_.size(); ++k) {
      const Verdict& a = verdicts_[2 * k];
      const Verdict& b = verdicts_[2 * k + 1];
      Tally& t = rows[items_[k].row];
      ++t.total;
      if (!a.ok || !b.ok) continue;
      if (a.complete) ++t.decided;
      if (a.complete && b.complete) {
        ++t.compared;
        if (a.verdict == b.verdict) ++t.agree;
      }
    }
    rbda::JsonObjectWriter line;
    bool ok = true;
    for (int r = 0; r < kNumRows; ++r) {
      rbda::JsonObjectWriter w;
      w.AddUint("agree", rows[r].agree);
      w.AddUint("compared", rows[r].compared);
      w.AddUint("decided", rows[r].decided);
      w.AddUint("total", rows[r].total);
      line.AddRaw(kRowNames[r], w.ToJson());
      ok &= rows[r].agree == rows[r].compared;
    }
    // Example 6.1: the existence-check simplification must change the
    // verdict, as the paper says it does beyond IDs.
    using rbda::Answerability;
    ok &= ExampleHolds(kExample61, "Q", false, false,
                       Answerability::kAnswerable, &line, "ex6.1_original");
    ok &= ExampleHolds(kExample61, "Q", false, true,
                       Answerability::kNotAnswerable, &line,
                       "ex6.1_existence_check");
    PrintInfo("gate.rows", line.ToJson());
    return ok;
  }

 private:
  void Regenerate() {
    items_.clear();
    items_.reserve(kNumRows * kSeedsPerRow);
    for (uint64_t k = 1; k <= kSeedsPerRow; ++k) {
      for (int r = 0; r < kNumRows; ++r) {
        items_.push_back(
            Generate(static_cast<Row>(r), k));
      }
    }
  }

  const rbda::DecisionOptions options_ = Budgets();
  rbda::DecisionOptions naive_ = Budgets();
  std::vector<Item> items_;
  std::vector<Verdict> verdicts_;
};

}  // namespace

int RunTable1(const Args& args) {
  Table1 workload;
  return RunDecideWorkload(args, &workload);
}

}  // namespace perfbench
