// decide_mix: the cold path of many small problems, as a CLI batch or a
// serve miss pays it. One caller in a closed loop turns each of N distinct
// documents (the fuzzer's ID, FD, UID+FD and chain families with up to two
// mutations each) into a verdict: parse the text, then decide. The
// workload seed orders the documents.
#include <vector>

#include "base/rng.h"
#include "fuzz/fuzzer.h"
#include "harness.h"
#include "obs/json.h"
#include "paper_examples.h"
#include "parser/parser.h"

namespace perfbench {
namespace {

constexpr size_t kDocuments = 20000;

// Parses `text` into a fresh Universe and decides its first query.
rbda::StatusOr<rbda::Decision> ParseAndDecide(
    const std::string& text, const rbda::DecisionOptions& options) {
  rbda::Universe universe;
  rbda::StatusOr<rbda::ParsedDocument> doc =
      rbda::ParseDocument(text, &universe);
  if (!doc.ok()) return doc.status();
  if (doc->queries.empty()) {
    return rbda::Status::InvalidArgument("document declares no query");
  }
  return rbda::DecideQueryAnswerability(
      doc->schema, doc->queries.begin()->second, options);
}

class DecideMix : public DecideWorkload {
 public:
  explicit DecideMix(uint64_t seed) : seed_(seed) {}

  std::string Setup() override {
    rbda::FuzzOptions fuzz;
    fuzz.seed = kPopulationSeed;
    fuzz.max_mutations = 2;
    documents_.clear();
    documents_.reserve(kDocuments);
    for (size_t i = 0; i < kDocuments; ++i) {
      documents_.push_back(rbda::GenerateCaseDocument(fuzz, i, nullptr));
    }
    rbda::Rng rng(seed_);
    for (size_t i = documents_.size(); i > 1; --i) {
      std::swap(documents_[i - 1], documents_[rng.Below(i)]);
    }
    Fingerprint fingerprint;
    for (const std::string& document : documents_) fingerprint.Add(document);
    verdicts_.assign(kDocuments, Verdict{});
    return fingerprint.Hex();
  }

  size_t NumOps() const override { return documents_.size(); }

  OpSample Run(size_t i, TierProbe* probe, SpanLog* spans,
               uint64_t op_id) override {
    if (probe != nullptr) probe->Before();
    const uint64_t start = NowNs();
    uint64_t parsed = 0;
    uint64_t decided = 0;
    rbda::StatusOr<rbda::Decision> d = rbda::Status::Internal("unset");
    {
      rbda::Universe universe;
      rbda::StatusOr<rbda::ParsedDocument> doc =
          rbda::ParseDocument(documents_[i], &universe);
      parsed = NowNs();
      if (!doc.ok()) {
        d = doc.status();
      } else if (doc->queries.empty()) {
        d = rbda::Status::InvalidArgument("document declares no query");
      } else {
        d = rbda::DecideQueryAnswerability(
            doc->schema, doc->queries.begin()->second, options_);
      }
      decided = NowNs();
    }
    const uint64_t end = NowNs();
    if (probe != nullptr) probe->After(d);
    if (spans != nullptr) {
      spans->Record(op_id, "parse", start, parsed);
      spans->Record(op_id, "decide", parsed, decided);
    }
    verdicts_[i] = VerdictOf(d);
    return OpSample{end - start, OutcomeOf(d)};
  }

  bool Gate() override {
    // The naive §3 reduction must agree wherever both verdicts are definite.
    rbda::DecisionOptions naive = options_;
    naive.force_naive = true;
    uint64_t compared = 0;
    uint64_t mismatches = 0;
    for (size_t i = 0; i < documents_.size(); ++i) {
      Verdict fast = verdicts_[i];
      Verdict slow = VerdictOf(ParseAndDecide(documents_[i], naive));
      if (!fast.ok || !fast.complete || !slow.ok || !slow.complete) continue;
      ++compared;
      if (fast.verdict != slow.verdict) ++mismatches;
    }
    rbda::JsonObjectWriter naive_line;
    naive_line.AddUint("compared", compared);
    naive_line.AddUint("mismatches", mismatches);
    PrintInfo("gate.naive", naive_line.ToJson());

    using rbda::Answerability;
    rbda::JsonObjectWriter examples;
    bool ok = true;
    ok &= ExampleHolds(kUniversityNoBounds, "Q1", true, false,
                       Answerability::kAnswerable, &examples, "ex1.2_q1");
    ok &= ExampleHolds(kUniversityBounded, "Q1", true, false,
                       Answerability::kNotAnswerable, &examples, "ex1.3_q1");
    ok &= ExampleHolds(kUniversityBounded, "Q2", false, false,
                       Answerability::kAnswerable, &examples, "ex1.3_q2");
    ok &= ExampleHolds(kUniversityFd, "Q3", false, false,
                       Answerability::kAnswerable, &examples, "ex1.5_q3");
    ok &= ExampleHolds(kUniversityFd, "Qphone", false, false,
                       Answerability::kNotAnswerable, &examples,
                       "ex1.5_qphone");
    ok &= ExampleHolds(kExample61, "Q", false, false,
                       Answerability::kAnswerable, &examples, "ex6.1_q");
    PrintInfo("gate.examples", examples.ToJson());
    return ok && mismatches == 0;
  }

 private:
  const uint64_t seed_;
  const rbda::DecisionOptions options_ = ColdPathBudgets();
  std::vector<std::string> documents_;
  std::vector<Verdict> verdicts_;
};

}  // namespace

int RunDecideMix(const Args& args) {
  DecideMix workload(args.seed);
  return RunDecideWorkload(args, &workload);
}

}  // namespace perfbench
