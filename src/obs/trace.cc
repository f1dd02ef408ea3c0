#include "obs/trace.h"

#include <chrono>

#include "base/task_pool.h"
#include "obs/json.h"

namespace rbda {

namespace {

// Dense per-thread trace ids, assigned on first use (serial runs are
// always tid 1). 0 means "not yet assigned".
std::atomic<uint32_t> g_next_tid{1};
thread_local uint32_t t_trace_tid = 0;

// The calling thread's active span id (0 = root). Maintained by
// TraceSpan's constructor/destructor and swapped across TaskPool
// submission via the task-context hooks installed below.
thread_local uint64_t t_current_span = 0;

std::atomic<uint64_t> g_next_span_id{1};

// Install the span-context hooks as soon as the obs library is linked.
[[maybe_unused]] const bool g_context_hooks_installed = [] {
  SetTaskContextHooks(&CaptureSpanContext, &SwapSpanContext);
  return true;
}();

}  // namespace

uint32_t TraceThreadId() {
  if (t_trace_tid == 0) {
    t_trace_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_trace_tid;
}

uint64_t CaptureSpanContext() { return t_current_span; }

uint64_t SwapSpanContext(uint64_t span_id) {
  uint64_t prev = t_current_span;
  t_current_span = span_id;
  return prev;
}

namespace obs_internal {

std::atomic<TraceSink*> g_trace_sink{nullptr};

uint64_t TraceNowMicros() {
  // Microseconds since the first call (a stable per-process origin keeps
  // timestamps small and diffable across runs).
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void Emit(TraceRecord record) {
  TraceSink* sink = g_trace_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->Record(std::move(record));
}

}  // namespace obs_internal

TraceSink* SetTraceSink(TraceSink* sink) {
  return obs_internal::g_trace_sink.exchange(sink,
                                             std::memory_order_acq_rel);
}

TraceSink* ActiveTraceSink() {
  return obs_internal::g_trace_sink.load(std::memory_order_acquire);
}

std::string TraceRecord::ToJson() const {
  JsonObjectWriter out;
  const char* kind_name = kind == Kind::kSpanBegin ? "span_begin"
                          : kind == Kind::kSpanEnd ? "span_end"
                                                   : "event";
  out.AddString("kind", kind_name);
  out.AddString("name", name);
  out.AddUint("ts_us", ts_us);
  if (kind == Kind::kSpanEnd) out.AddUint("duration_us", duration_us);
  out.AddUint("tid", tid);
  if (span_id != 0) out.AddUint("span_id", span_id);
  if (parent_id != 0) out.AddUint("parent_id", parent_id);
  for (const auto& [key, value] : ints) out.AddInt(key, value);
  for (const auto& [key, value] : strs) out.AddString(key, value);
  return out.ToJson();
}

void TraceEventRecord(std::string_view name,
                      std::vector<std::pair<std::string, int64_t>> ints,
                      std::vector<std::pair<std::string, std::string>> strs) {
  if (!TraceEnabled()) return;
  TraceRecord record;
  record.kind = TraceRecord::Kind::kEvent;
  record.name = std::string(name);
  record.ts_us = obs_internal::TraceNowMicros();
  record.tid = TraceThreadId();
  record.parent_id = t_current_span;
  record.ints = std::move(ints);
  record.strs = std::move(strs);
  obs_internal::Emit(std::move(record));
}

TraceSpan::TraceSpan(std::string_view name) {
  if (!TraceEnabled()) return;
  active_ = true;
  name_ = std::string(name);
  start_us_ = obs_internal::TraceNowMicros();
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = SwapSpanContext(span_id_);
  TraceRecord record;
  record.kind = TraceRecord::Kind::kSpanBegin;
  record.name = name_;
  record.ts_us = start_us_;
  record.tid = TraceThreadId();
  record.span_id = span_id_;
  record.parent_id = parent_id_;
  obs_internal::Emit(std::move(record));
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  SwapSpanContext(parent_id_);
  TraceRecord record;
  record.kind = TraceRecord::Kind::kSpanEnd;
  record.name = std::move(name_);
  record.ts_us = obs_internal::TraceNowMicros();
  record.duration_us = record.ts_us - start_us_;
  record.tid = TraceThreadId();
  record.span_id = span_id_;
  record.parent_id = parent_id_;
  record.ints = std::move(ints_);
  record.strs = std::move(strs_);
  obs_internal::Emit(std::move(record));
}

void TraceSpan::AddInt(std::string_view key, int64_t value) {
  if (active_) ints_.emplace_back(std::string(key), value);
}

void TraceSpan::AddStr(std::string_view key, std::string_view value) {
  if (active_) strs_.emplace_back(std::string(key), std::string(value));
}

void RingBufferSink::Record(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (buffer_.size() == capacity_) {
    buffer_.pop_front();
    ++dropped_;
  }
  buffer_.push_back(std::move(record));
}

std::vector<TraceRecord> RingBufferSink::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceRecord>(buffer_.begin(), buffer_.end());
}

uint64_t RingBufferSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t RingBufferSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

JsonLinesFileSink::JsonLinesFileSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
}

JsonLinesFileSink::~JsonLinesFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonLinesFileSink::Record(TraceRecord record) {
  std::string line = record.ToJson();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

void JsonLinesFileSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace rbda
