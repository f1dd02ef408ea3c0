#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "base/task_pool.h"
#include "gtest/gtest.h"
#include "obs/chrome_trace.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace rbda {
namespace {

TEST(MetricsTest, CounterRegistersAndIncrements) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name resolves to the same handle.
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
}

TEST(MetricsTest, CountersAndDistributionsAreSeparateNamespaces) {
  MetricsRegistry registry;
  registry.GetCounter("x");
  registry.GetDistribution("x");
  EXPECT_EQ(registry.CounterValues().size(), 1u);
  EXPECT_EQ(registry.DistributionValues().size(), 1u);
}

TEST(MetricsTest, DistributionTracksCountSumMinMax) {
  MetricsRegistry registry;
  Distribution* d = registry.GetDistribution("test.dist");
  EXPECT_EQ(d->count(), 0u);
  EXPECT_EQ(d->min(), 0u);  // empty
  d->Record(7);
  d->Record(3);
  d->Record(11);
  EXPECT_EQ(d->count(), 3u);
  EXPECT_EQ(d->sum(), 21u);
  EXPECT_EQ(d->min(), 3u);
  EXPECT_EQ(d->max(), 11u);
}

TEST(MetricsTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Distribution* d = registry.GetDistribution("test.dist");
  c->Increment(5);
  d->Record(9);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(d->count(), 0u);
  EXPECT_EQ(d->min(), 0u);
  c->Increment();
  EXPECT_EQ(registry.GetCounter("test.counter")->value(), 1u);
}

TEST(MetricsTest, ConcurrentIncrementsAreNotLost) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.parallel");
  Distribution* d = registry.GetDistribution("test.parallel");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        d->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(d->count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(d->min(), 0u);
  EXPECT_EQ(d->max(), uint64_t{kPerThread - 1});
}

TEST(MetricsTest, ScopedTimerFeedsDistributionMonotonically) {
  MetricsRegistry registry;
  Distribution* d = registry.GetDistribution("test.timer_us");
  uint64_t first = 0;
  {
    ScopedTimer timer(d);
    // Do a little work so the clock advances at least 0 microseconds.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
    first = timer.ElapsedMicros();
    uint64_t second = timer.ElapsedMicros();
    EXPECT_GE(second, first);  // steady_clock never goes backwards
  }
  EXPECT_EQ(d->count(), 1u);
  EXPECT_GE(d->max(), first);
  ScopedTimer(nullptr);  // null distribution is a safe no-op
}

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("  {\"a\": [1, 2.5, -3e2, \"x\", true, null]} "));
  EXPECT_TRUE(IsValidJson("[{\"nested\": {\"deep\": []}}]"));
  EXPECT_TRUE(IsValidJson("\"just a string\""));
  EXPECT_TRUE(IsValidJson("-0.5"));
  EXPECT_FALSE(IsValidJson(""));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\":}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
  EXPECT_FALSE(IsValidJson("{\"a\":1} extra"));
  EXPECT_FALSE(IsValidJson("01"));
  EXPECT_FALSE(IsValidJson("\"unterminated"));
}

TEST(JsonTest, ObjectWriterProducesValidJson) {
  JsonObjectWriter obj;
  obj.AddString("name", "va\"lue");
  obj.AddUint("big", ~uint64_t{0});
  obj.AddInt("neg", -7);
  obj.AddBool("flag", true);
  obj.AddRaw("inner", "{\"x\":1}");
  std::string json = obj.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"va\\\"lue\""), std::string::npos);
}

TEST(JsonTest, SnapshotIsWellFormedAndContainsMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("chase.rounds")->Increment(3);
  registry.GetDistribution("decide_us")->Record(12);
  std::string json = SnapshotToJson(registry);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"chase.rounds\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"decide_us\":{\"count\":1,\"sum\":12"),
            std::string::npos)
      << json;
  // Empty registry snapshots are valid too.
  MetricsRegistry empty;
  EXPECT_TRUE(IsValidJson(SnapshotToJson(empty)));
}

TEST(TraceTest, DisabledByDefaultAndCheapToProbe) {
  ASSERT_EQ(ActiveTraceSink(), nullptr);
  EXPECT_FALSE(TraceEnabled());
  // With no sink, spans and events are no-ops.
  TraceSpan span("noop");
  EXPECT_FALSE(span.active());
  TraceEventRecord("noop", {{"k", 1}});
}

TEST(TraceTest, SpansAndEventsReachTheSink) {
  RingBufferSink sink(16);
  ASSERT_EQ(SetTraceSink(&sink), nullptr);
  {
    TraceSpan span("outer");
    span.AddInt("rounds", 3);
    span.AddStr("verdict", "contained");
    TraceEventRecord("tick", {{"n", 1}}, {{"tag", "x"}});
  }
  SetTraceSink(nullptr);

  std::vector<TraceRecord> records = sink.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, TraceRecord::Kind::kSpanBegin);
  EXPECT_EQ(records[0].name, "outer");
  EXPECT_EQ(records[1].kind, TraceRecord::Kind::kEvent);
  EXPECT_EQ(records[1].name, "tick");
  EXPECT_EQ(records[2].kind, TraceRecord::Kind::kSpanEnd);
  EXPECT_EQ(records[2].ints.size(), 1u);
  EXPECT_EQ(records[2].ints[0].second, 3);
  EXPECT_GE(records[2].ts_us, records[0].ts_us);
  for (const TraceRecord& r : records) {
    EXPECT_TRUE(IsValidJson(r.ToJson())) << r.ToJson();
  }
}

TEST(TraceTest, RingBufferDropsOldestOnOverflow) {
  RingBufferSink sink(4);
  for (int i = 0; i < 10; ++i) {
    TraceRecord r;
    r.name = "e" + std::to_string(i);
    sink.Record(std::move(r));
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<TraceRecord> records = sink.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().name, "e6");  // oldest surviving
  EXPECT_EQ(records.back().name, "e9");   // most recent
}

TEST(TraceTest, ZeroCapacityRingBufferDropsEverything) {
  RingBufferSink sink(0);
  sink.Record(TraceRecord{});
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceTest, JsonLinesFileSinkWritesParseableLines) {
  std::string path = ::testing::TempDir() + "/obs_trace_test.jsonl";
  {
    JsonLinesFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    ASSERT_EQ(SetTraceSink(&sink), nullptr);
    {
      TraceSpan span("chase.run");
      span.AddInt("rounds", 2);
      TraceEventRecord("chase.round", {{"round", 1}, {"fired", 5}});
    }
    SetTraceSink(nullptr);
    sink.Flush();
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(IsValidJson(line)) << line;
    EXPECT_NE(line.find("\"kind\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts_us\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 3);  // span_begin + event + span_end
  std::remove(path.c_str());
}

TEST(TraceTest, FileSinkReportsUnwritablePath) {
  JsonLinesFileSink sink("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(sink.ok());
}

// ---------------------------------------------------------------------------
// Histogram: bucket geometry, quantile error bound, merge, reset, races.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketGeometryRoundTrips) {
  // Every bucket's lower/upper bound maps back to that bucket, and the
  // extremes of the uint64 range are covered.
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    uint64_t lower = Histogram::BucketLowerBound(i);
    uint64_t upper = Histogram::BucketUpperBound(i);
    ASSERT_LE(lower, upper) << "bucket " << i;
    ASSERT_EQ(Histogram::BucketIndex(lower), i);
    ASSERT_EQ(Histogram::BucketIndex(upper), i);
  }
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_LT(Histogram::BucketIndex(~uint64_t{0}), Histogram::kNumBuckets);
  // Values below kSubBuckets get one exact bucket each.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v);
    EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketIndex(v)), v);
  }
}

// Exact q-quantile of a multiset: the rank-ceil(q*n) smallest value, the
// same nearest-rank definition Histogram::Quantile estimates.
uint64_t ExactQuantile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return values[rank - 1];
}

void ExpectQuantilesWithinBound(const std::vector<uint64_t>& values,
                                const char* shape) {
  Histogram hist;
  for (uint64_t v : values) hist.Record(v);
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    uint64_t exact = ExactQuantile(values, q);
    uint64_t est = hist.Quantile(q);
    // The estimate is the upper bound of the exact quantile's bucket
    // (clamped to max), so it never undershoots and overshoots by at most
    // the bucket width <= exact / kSubBuckets.
    EXPECT_GE(est, exact) << shape << " q=" << q;
    EXPECT_LE(static_cast<double>(est - exact),
              static_cast<double>(exact) * Histogram::kMaxRelativeError)
        << shape << " q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistogramTest, QuantileWithinRelativeErrorBound) {
  std::mt19937_64 rng(42);
  std::vector<uint64_t> uniform;
  std::uniform_int_distribution<uint64_t> wide(1, 1000000000);
  for (int i = 0; i < 20000; ++i) uniform.push_back(wide(rng));
  ExpectQuantilesWithinBound(uniform, "uniform");

  // Zipfian-ish: value = C / rank^1.2 over uniformly sampled ranks —
  // heavy head, long tail, the shape of containment-check latencies.
  std::vector<uint64_t> zipf;
  std::uniform_int_distribution<uint64_t> ranks(1, 100000);
  for (int i = 0; i < 20000; ++i) {
    double r = static_cast<double>(ranks(rng));
    zipf.push_back(
        static_cast<uint64_t>(1e9 / std::pow(r, 1.2)) + 1);
  }
  ExpectQuantilesWithinBound(zipf, "zipfian");

  std::vector<uint64_t> bimodal;
  std::uniform_int_distribution<uint64_t> fast(80, 120);
  std::uniform_int_distribution<uint64_t> slow(90000000, 110000000);
  for (int i = 0; i < 10000; ++i) {
    bimodal.push_back(fast(rng));
    bimodal.push_back(slow(rng));
  }
  ExpectQuantilesWithinBound(bimodal, "bimodal");
}

TEST(HistogramTest, QuantilesExactBelowSubBuckets) {
  Histogram hist;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) hist.Record(v);
  for (double q : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    std::vector<uint64_t> values(Histogram::kSubBuckets);
    for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) values[v] = v;
    EXPECT_EQ(hist.Quantile(q), ExactQuantile(values, q)) << "q=" << q;
  }
  EXPECT_EQ(hist.Quantile(0.5), 15u);  // ceil(0.5*32)=16th smallest = 15
}

void ExpectSnapshotsEqual(const HistogramSnapshot& a,
                          const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint64_t> dist(1, 1 << 20);
  Histogram ha, hb, hc;
  for (int i = 0; i < 500; ++i) ha.Record(dist(rng));
  for (int i = 0; i < 300; ++i) hb.Record(dist(rng) + (1 << 22));
  for (int i = 0; i < 100; ++i) hc.Record(dist(rng) % 100);
  HistogramSnapshot a = ha.TakeSnapshot();
  HistogramSnapshot b = hb.TakeSnapshot();
  HistogramSnapshot c = hc.TakeSnapshot();

  HistogramSnapshot ab_c = a;  // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;  // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  HistogramSnapshot cba = c;  // reversed order
  cba.Merge(b);
  cba.Merge(a);

  ExpectSnapshotsEqual(ab_c, a_bc);
  ExpectSnapshotsEqual(ab_c, cba);
  EXPECT_EQ(ab_c.count, 900u);
  EXPECT_EQ(ab_c.Quantile(0.9), a_bc.Quantile(0.9));

  // Merging an empty snapshot is a no-op (in particular min stays put).
  HistogramSnapshot with_empty = a;
  with_empty.Merge(HistogramSnapshot{});
  ExpectSnapshotsEqual(with_empty, a);
}

TEST(HistogramTest, MergeSnapshotIntoHistogram) {
  Histogram ha, hb;
  ha.Record(10);
  ha.Record(1000);
  hb.Record(3);
  hb.Record(500000);
  ha.Merge(hb.TakeSnapshot());
  EXPECT_EQ(ha.count(), 4u);
  EXPECT_EQ(ha.sum(), 501013u);
  EXPECT_EQ(ha.min(), 3u);
  EXPECT_EQ(ha.max(), 500000u);
}

TEST(HistogramTest, ResetZeroesAllState) {
  Histogram hist;
  hist.Record(100);
  hist.Record(7);
  EXPECT_EQ(hist.count(), 2u);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.Quantile(0.5), 0u);
  hist.Record(5);  // still usable after reset
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 5u);
}

TEST(HistogramTest, RacingThreadsRecordExactly) {
  // The same multiset recorded from racing threads must produce
  // bit-identical aggregates to a serial Record() loop: concurrent relaxed
  // adds lose nothing.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  Histogram racing;
  Histogram reference;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      reference.Record(i * 2654435761u % 1000003 + 1);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&racing] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        racing.Record(i * 2654435761u % 1000003 + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ExpectSnapshotsEqual(racing.TakeSnapshot(), reference.TakeSnapshot());
}

// ---------------------------------------------------------------------------
// Distribution quantiles and gauges in the registry + JSON snapshot.
// ---------------------------------------------------------------------------

TEST(MetricsTest, DistributionExposesQuantiles) {
  MetricsRegistry registry;
  Distribution* d = registry.GetDistribution("test.q");
  for (uint64_t v = 1; v <= 1000; ++v) d->Record(v);
  uint64_t p50 = d->Quantile(0.5);
  uint64_t p99 = d->Quantile(0.99);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(static_cast<double>(p50), 500.0 * (1 + Histogram::kMaxRelativeError));
  EXPECT_GE(p99, 990u);
  EXPECT_LE(static_cast<double>(p99), 990.0 * (1 + Histogram::kMaxRelativeError));
  std::vector<std::pair<std::string, DistributionStats>> stats =
      registry.DistributionValues();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.p50, p50);
  EXPECT_EQ(stats[0].second.p99, p99);
  EXPECT_EQ(stats[0].second.max, 1000u);
}

TEST(MetricsTest, GaugeSetsAndResets) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  EXPECT_EQ(g->value(), 0u);
  g->Set(42);
  g->Set(7);  // last write wins, no accumulation
  EXPECT_EQ(g->value(), 7u);
  EXPECT_EQ(registry.GetGauge("test.gauge"), g);
  std::vector<std::pair<std::string, uint64_t>> values =
      registry.GaugeValues();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].first, "test.gauge");
  EXPECT_EQ(values[0].second, 7u);
  registry.Reset();
  EXPECT_EQ(g->value(), 0u);
}

TEST(JsonTest, SnapshotCarriesQuantilesAndGauges) {
  MetricsRegistry registry;
  Distribution* d = registry.GetDistribution("decide_us");
  d->Record(12);
  registry.GetGauge("serve.queue.depth")->Set(5);
  std::string json = SnapshotToJson(registry);
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Backwards-compat: count/sum/min/max stay the leading fields.
  EXPECT_NE(json.find("\"decide_us\":{\"count\":1,\"sum\":12,\"min\":12,"
                      "\"max\":12"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"quantiles\":{\"p50\":12,\"p90\":12,\"p99\":12,"
                      "\"p999\":12}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"serve.queue.depth\":5}"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Trace: thread ids, span ids, and span-context propagation across the
// task pool.
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsCarryTidAndSpanIds) {
  RingBufferSink sink(16);
  ASSERT_EQ(SetTraceSink(&sink), nullptr);
  {
    TraceSpan outer("outer");
    EXPECT_NE(outer.span_id(), 0u);
    {
      TraceSpan inner("inner");
      EXPECT_NE(inner.span_id(), outer.span_id());
      TraceEventRecord("tick");
    }
  }
  SetTraceSink(nullptr);

  std::vector<TraceRecord> records = sink.records();
  ASSERT_EQ(records.size(), 5u);  // B(outer) B(inner) i(tick) E(inner) E(outer)
  const TraceRecord& outer_begin = records[0];
  const TraceRecord& inner_begin = records[1];
  const TraceRecord& tick = records[2];
  const TraceRecord& inner_end = records[3];
  const TraceRecord& outer_end = records[4];
  // All on one thread, with a stable nonzero tid.
  EXPECT_NE(outer_begin.tid, 0u);
  for (const TraceRecord& r : records) EXPECT_EQ(r.tid, outer_begin.tid);
  // Span ids pair begin/end; parent ids encode the nesting.
  EXPECT_NE(outer_begin.span_id, 0u);
  EXPECT_EQ(outer_begin.span_id, outer_end.span_id);
  EXPECT_EQ(inner_begin.span_id, inner_end.span_id);
  EXPECT_EQ(outer_begin.parent_id, 0u);
  EXPECT_EQ(inner_begin.parent_id, outer_begin.span_id);
  EXPECT_EQ(tick.parent_id, inner_begin.span_id);
}

TEST(TraceTest, SpanContextPropagatesAcrossTaskPool) {
  RingBufferSink sink(64);
  ASSERT_EQ(SetTraceSink(&sink), nullptr);
  uint64_t parent_span = 0;
  {
    TraceSpan decide("decide");
    parent_span = decide.span_id();
    TaskPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.Submit([] { TraceSpan check("containment.check"); });
    }
    pool.Wait();
  }
  SetTraceSink(nullptr);

  ASSERT_NE(parent_span, 0u);
  int worker_spans = 0;
  for (const TraceRecord& r : sink.records()) {
    if (r.name != "containment.check" ||
        r.kind != TraceRecord::Kind::kSpanBegin) {
      continue;
    }
    ++worker_spans;
    // Worker-side spans parent under the span active at Submit() time,
    // even though they run on a different thread.
    EXPECT_EQ(r.parent_id, parent_span);
  }
  EXPECT_EQ(worker_spans, 4);
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, RecordJsonShapes) {
  TraceRecord begin;
  begin.kind = TraceRecord::Kind::kSpanBegin;
  begin.name = "decide";
  begin.ts_us = 10;
  begin.tid = 3;
  begin.span_id = 17;
  std::string b = TraceRecordToChromeJson(begin);
  EXPECT_TRUE(IsValidJson(b)) << b;
  EXPECT_NE(b.find("\"ph\":\"B\""), std::string::npos) << b;
  EXPECT_NE(b.find("\"pid\":1"), std::string::npos) << b;
  EXPECT_NE(b.find("\"tid\":3"), std::string::npos) << b;
  EXPECT_NE(b.find("\"ts\":10"), std::string::npos) << b;
  EXPECT_NE(b.find("\"span_id\":17"), std::string::npos) << b;
  EXPECT_EQ(b.find("\"s\":\"t\""), std::string::npos) << b;

  TraceRecord end = begin;
  end.kind = TraceRecord::Kind::kSpanEnd;
  end.ints.emplace_back("rounds", 3);
  std::string e = TraceRecordToChromeJson(end);
  EXPECT_TRUE(IsValidJson(e)) << e;
  EXPECT_NE(e.find("\"ph\":\"E\""), std::string::npos) << e;
  EXPECT_NE(e.find("\"rounds\":3"), std::string::npos) << e;

  TraceRecord event;
  event.kind = TraceRecord::Kind::kEvent;
  event.name = "containment.slow_check";
  event.strs.emplace_back("label", "query:Q1");
  std::string i = TraceRecordToChromeJson(event);
  EXPECT_TRUE(IsValidJson(i)) << i;
  EXPECT_NE(i.find("\"ph\":\"i\""), std::string::npos) << i;
  EXPECT_NE(i.find("\"s\":\"t\""), std::string::npos) << i;
  EXPECT_NE(i.find("\"query:Q1\""), std::string::npos) << i;
}

TEST(ChromeTraceTest, FileSinkWritesValidArrayWithBalancedSpans) {
  std::string path = ::testing::TempDir() + "/obs_chrome_trace_test.json";
  {
    ChromeTraceFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    ASSERT_EQ(SetTraceSink(&sink), nullptr);
    {
      TraceSpan decide("decide");
      TraceEventRecord("tick", {{"n", 1}});
      TaskPool pool(2);
      for (int i = 0; i < 6; ++i) {
        pool.Submit([] { TraceSpan check("containment.check"); });
      }
      pool.Wait();
    }
    SetTraceSink(nullptr);
    sink.Close();
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  // The whole file is one JSON document (the trace-event array).
  EXPECT_TRUE(IsValidJson(content)) << content;

  // Every "B" has a matching "E" per tid: replay the per-line events and
  // check the per-thread span stacks balance. (Each record is one line.)
  std::map<uint64_t, int> depth;
  std::istringstream lines(content);
  std::string line;
  int begins = 0;
  while (std::getline(lines, line)) {
    bool is_begin = line.find("\"ph\":\"B\"") != std::string::npos;
    bool is_end = line.find("\"ph\":\"E\"") != std::string::npos;
    if (!is_begin && !is_end) continue;
    size_t tid_pos = line.find("\"tid\":");
    ASSERT_NE(tid_pos, std::string::npos) << line;
    uint64_t tid = std::strtoull(line.c_str() + tid_pos + 6, nullptr, 10);
    if (is_begin) {
      ++depth[tid];
      ++begins;
    } else {
      --depth[tid];
      ASSERT_GE(depth[tid], 0) << "E without matching B on tid " << tid;
    }
  }
  EXPECT_EQ(begins, 7);  // decide + 6 containment.check
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-decide cost attribution (QueryProfiler).
// ---------------------------------------------------------------------------

ContainmentCheckRecord MakeCheck(std::string label, uint64_t duration_us,
                                 uint64_t rounds) {
  ContainmentCheckRecord r;
  r.label = std::move(label);
  r.goal_relation = "R";
  r.duration_us = duration_us;
  r.rounds = rounds;
  r.facts = rounds * 2;
  r.hom_checks = rounds + 1;
  return r;
}

TEST(ProfileTest, AggregatesAndRanksTopChecks) {
  QueryProfiler profiler;
  profiler.RecordCheck(MakeCheck("q:a", 50, 2));
  profiler.RecordCheck(MakeCheck("q:b", 500, 5));
  profiler.RecordCheck(MakeCheck("q:c", 5, 0));
  QueryProfileSnapshot snap = profiler.TakeSnapshot();
  EXPECT_EQ(snap.checks, 3u);
  EXPECT_EQ(snap.total_us, 555u);
  EXPECT_EQ(snap.rounds, 7u);
  EXPECT_EQ(snap.check_us.count, 3u);
  ASSERT_EQ(snap.top_checks.size(), 3u);
  // Slowest first.
  EXPECT_EQ(snap.top_checks[0].label, "q:b");
  EXPECT_EQ(snap.top_checks[1].label, "q:a");
  EXPECT_EQ(snap.top_checks[2].label, "q:c");

  std::string json = profiler.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"checks\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"top_checks\":["), std::string::npos) << json;
  std::string summary = profiler.SummaryJson();
  EXPECT_TRUE(IsValidJson(summary)) << summary;
  EXPECT_NE(summary.find("\"p50_us\":"), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"p999_us\":"), std::string::npos) << summary;

  profiler.Reset();
  QueryProfileSnapshot empty = profiler.TakeSnapshot();
  EXPECT_EQ(empty.checks, 0u);
  EXPECT_TRUE(empty.top_checks.empty());
}

TEST(ProfileTest, TopKTableIsBoundedAndKeepsSlowest) {
  QueryProfiler profiler;
  constexpr size_t kChecks = QueryProfiler::kTopK + 15;
  for (size_t i = 1; i <= kChecks; ++i) {
    profiler.RecordCheck(MakeCheck("q", i * 10, 1));
  }
  QueryProfileSnapshot snap = profiler.TakeSnapshot();
  ASSERT_EQ(snap.top_checks.size(), QueryProfiler::kTopK);
  for (size_t i = 0; i < snap.top_checks.size(); ++i) {
    // The table holds exactly the kTopK largest durations, descending.
    EXPECT_EQ(snap.top_checks[i].duration_us, (kChecks - i) * 10);
  }
}

TEST(ProfileTest, SlowChecksEmitTraceEvents) {
  QueryProfiler profiler;
  profiler.set_slow_check_threshold_us(100);
  EXPECT_EQ(profiler.slow_check_threshold_us(), 100u);
  RingBufferSink sink(8);
  ASSERT_EQ(SetTraceSink(&sink), nullptr);
  profiler.RecordCheck(MakeCheck("q:fast", 99, 1));   // below: silent
  profiler.RecordCheck(MakeCheck("q:slow", 100, 3));  // at: traced
  SetTraceSink(nullptr);

  std::vector<TraceRecord> records = sink.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "containment.slow_check");
  bool saw_duration = false;
  for (const auto& [key, value] : records[0].ints) {
    if (key == "duration_us") {
      saw_duration = true;
      EXPECT_EQ(value, 100);
    }
  }
  EXPECT_TRUE(saw_duration);
  bool saw_label = false;
  for (const auto& [key, value] : records[0].strs) {
    if (key == "label") {
      saw_label = true;
      EXPECT_EQ(value, "q:slow");
    }
  }
  EXPECT_TRUE(saw_label);
}

TEST(ProfileTest, ScopedLabelNestsAndTagsUnlabeledChecks) {
  EXPECT_EQ(CurrentProfileLabel(), "");
  QueryProfiler profiler;
  {
    ScopedProfileLabel outer("query:Q1");
    EXPECT_EQ(CurrentProfileLabel(), "query:Q1");
    {
      ScopedProfileLabel inner("decide#0:id");
      EXPECT_EQ(CurrentProfileLabel(), "decide#0:id");
    }
    EXPECT_EQ(CurrentProfileLabel(), "query:Q1");
    // A check reported with no label inherits the active one.
    profiler.RecordCheck(MakeCheck("", 10, 1));
  }
  EXPECT_EQ(CurrentProfileLabel(), "");
  QueryProfileSnapshot snap = profiler.TakeSnapshot();
  ASSERT_EQ(snap.top_checks.size(), 1u);
  EXPECT_EQ(snap.top_checks[0].label, "query:Q1");
}

}  // namespace
}  // namespace rbda
