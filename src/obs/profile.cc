#include "obs/profile.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/trace.h"

namespace rbda {

namespace {

thread_local std::string t_profile_label;

std::string CheckRecordJson(const ContainmentCheckRecord& record) {
  JsonObjectWriter out;
  out.AddString("label", record.label);
  out.AddString("goal_relation", record.goal_relation);
  out.AddUint("duration_us", record.duration_us);
  out.AddUint("rounds", record.rounds);
  out.AddUint("facts", record.facts);
  out.AddUint("hom_checks", record.hom_checks);
  out.AddUint("pruned_constraints", record.pruned_constraints);
  return out.ToJson();
}

std::string SummaryJsonFromSnapshot(const QueryProfileSnapshot& snap) {
  JsonObjectWriter out;
  out.AddUint("checks", snap.checks);
  out.AddUint("total_us", snap.total_us);
  out.AddUint("rounds", snap.rounds);
  out.AddUint("facts", snap.facts);
  out.AddUint("hom_checks", snap.hom_checks);
  out.AddUint("pruned_constraints", snap.pruned_constraints);
  out.AddUint("p50_us", snap.check_us.Quantile(0.50));
  out.AddUint("p90_us", snap.check_us.Quantile(0.90));
  out.AddUint("p99_us", snap.check_us.Quantile(0.99));
  out.AddUint("p999_us", snap.check_us.Quantile(0.999));
  out.AddUint("max_us", snap.check_us.max);
  return out.ToJson();
}

}  // namespace

QueryProfiler& QueryProfiler::Default() {
  static QueryProfiler* profiler = new QueryProfiler();
  return *profiler;
}

void QueryProfiler::RecordCheck(ContainmentCheckRecord record) {
  if (record.label.empty()) record.label = std::string(CurrentProfileLabel());
  if (TraceEnabled() &&
      record.duration_us >=
          slow_check_threshold_us_.load(std::memory_order_relaxed)) {
    TraceEventRecord(
        "containment.slow_check",
        {{"duration_us", static_cast<int64_t>(record.duration_us)},
         {"rounds", static_cast<int64_t>(record.rounds)},
         {"facts", static_cast<int64_t>(record.facts)},
         {"hom_checks", static_cast<int64_t>(record.hom_checks)}},
        {{"label", record.label}, {"goal_relation", record.goal_relation}});
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++checks_;
  rounds_ += record.rounds;
  facts_ += record.facts;
  hom_checks_ += record.hom_checks;
  pruned_constraints_ += record.pruned_constraints;
  check_us_.Record(record.duration_us);
  // Insertion sort into the bounded top-K table (K is tiny).
  auto pos = std::upper_bound(
      top_checks_.begin(), top_checks_.end(), record,
      [](const ContainmentCheckRecord& a, const ContainmentCheckRecord& b) {
        return a.duration_us > b.duration_us;
      });
  if (pos != top_checks_.end() || top_checks_.size() < kTopK) {
    top_checks_.insert(pos, std::move(record));
    if (top_checks_.size() > kTopK) top_checks_.pop_back();
  }
}

void QueryProfiler::set_slow_check_threshold_us(uint64_t us) {
  slow_check_threshold_us_.store(us, std::memory_order_relaxed);
}

uint64_t QueryProfiler::slow_check_threshold_us() const {
  return slow_check_threshold_us_.load(std::memory_order_relaxed);
}

QueryProfileSnapshot QueryProfiler::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryProfileSnapshot snap;
  snap.checks = checks_;
  snap.rounds = rounds_;
  snap.facts = facts_;
  snap.hom_checks = hom_checks_;
  snap.pruned_constraints = pruned_constraints_;
  snap.check_us = check_us_.TakeSnapshot();
  snap.total_us = snap.check_us.sum;
  snap.top_checks = top_checks_;
  return snap;
}

std::string QueryProfiler::ToJson() const {
  QueryProfileSnapshot snap = TakeSnapshot();
  std::string top = "[";
  for (size_t i = 0; i < snap.top_checks.size(); ++i) {
    if (i > 0) top += ",";
    top += CheckRecordJson(snap.top_checks[i]);
  }
  top += "]";
  JsonObjectWriter out;
  out.AddRaw("containment", SummaryJsonFromSnapshot(snap));
  out.AddRaw("top_checks", top);
  return out.ToJson();
}

std::string QueryProfiler::SummaryJson() const {
  return SummaryJsonFromSnapshot(TakeSnapshot());
}

void QueryProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  checks_ = 0;
  rounds_ = 0;
  facts_ = 0;
  hom_checks_ = 0;
  pruned_constraints_ = 0;
  check_us_.Reset();
  top_checks_.clear();
}

ScopedProfileLabel::ScopedProfileLabel(std::string_view label)
    : previous_(std::move(t_profile_label)) {
  t_profile_label = std::string(label);
}

ScopedProfileLabel::~ScopedProfileLabel() {
  t_profile_label = std::move(previous_);
}

std::string_view CurrentProfileLabel() { return t_profile_label; }

}  // namespace rbda
