// Tests for the telemetry layer: metrics registry (counters, gauges,
// log2-bucket histograms), snapshot views and algebra, the span tracer's
// Chrome trace-event export, and the environment-driven session.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/json.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/session.h"
#include "telemetry/spans.h"

namespace folvec::telemetry {
namespace {

// ---- histogram buckets ------------------------------------------------------

TEST(HistogramTest, BucketIsBitWidth) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(1023), 10u);
  EXPECT_EQ(histogram_bucket(1024), 11u);
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 64u);
}

TEST(HistogramTest, BucketRangesTileTheDomain) {
  EXPECT_EQ(histogram_bucket_range(0), (std::pair<std::uint64_t,
                                                  std::uint64_t>{0, 0}));
  std::uint64_t expected_lo = 1;
  for (std::size_t b = 1; b <= 64; ++b) {
    const auto [lo, hi] = histogram_bucket_range(b);
    EXPECT_EQ(lo, expected_lo) << "bucket " << b;
    EXPECT_EQ(histogram_bucket(lo), b);
    EXPECT_EQ(histogram_bucket(hi), b);
    if (b < 64) expected_lo = hi + 1;
  }
}

TEST(HistogramTest, RecordTracksCountSumMinMaxAndWeights) {
  HistogramData h;
  h.record(5);
  h.record(0);
  h.record(100, 3);  // three occurrences at once
  h.record(7, 0);    // zero weight: must be a no-op
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 305u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_EQ(h.buckets[histogram_bucket(100)], 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 61.0);
}

TEST(HistogramTest, MergeCombines) {
  HistogramData a;
  a.record(2);
  HistogramData b;
  b.record(1000, 2);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 2002u);
  EXPECT_EQ(a.min, 2u);
  EXPECT_EQ(a.max, 1000u);
  a.merge(HistogramData{});  // empty merge is a no-op
  EXPECT_EQ(a.count, 3u);
}

TEST(HistogramTest, SaturatingArithmeticHelpers) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_EQ(saturating_add_u64(kMax - 1, 1), kMax);  // boundary: exact
  EXPECT_EQ(saturating_add_u64(kMax, 1), kMax);      // just past: pinned
  EXPECT_EQ(saturating_add_u64(kMax, kMax), kMax);
  EXPECT_EQ(saturating_mul_u64(kMax, 1), kMax);
  EXPECT_EQ(saturating_mul_u64(kMax / 2, 2), kMax - 1);  // boundary: exact
  EXPECT_EQ(saturating_mul_u64(kMax / 2 + 1, 2), kMax);  // just past: pinned
  EXPECT_EQ(saturating_mul_u64(0, kMax), 0u);
}

TEST(HistogramTest, SumSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  HistogramData h;
  h.record(kMax);
  EXPECT_EQ(h.sum, kMax);
  h.record(1);  // pre-fix this wrapped sum back to 0
  EXPECT_EQ(h.sum, kMax);
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.max, kMax);

  // Weighted records saturate through the multiply too.
  HistogramData w;
  w.record(kMax / 2 + 1, 2);
  EXPECT_EQ(w.sum, kMax);
  EXPECT_EQ(w.count, 2u);

  // Merge saturates count, sum, and the shared bucket.
  HistogramData a;
  a.record(3, kMax);
  HistogramData b;
  b.record(3, kMax);
  a.merge(b);
  EXPECT_EQ(a.count, kMax);
  EXPECT_EQ(a.buckets.at(histogram_bucket(3)), kMax);
}

// ---- percentile sketch ------------------------------------------------------

TEST(PercentileSketchTest, BucketRangesTileTheDomain) {
  // Exact region: one bucket per value below 2 * kSubBuckets.
  for (std::uint64_t v = 0; v < 2 * PercentileSketch::kSubBuckets; ++v) {
    EXPECT_EQ(PercentileSketch::bucket_index(v), v);
    EXPECT_EQ(PercentileSketch::bucket_range(v),
              (std::pair<std::uint64_t, std::uint64_t>{v, v}));
  }
  // Sub-bucketed region: ranges are contiguous and invert bucket_index.
  std::uint64_t expected_lo = 2 * PercentileSketch::kSubBuckets;
  for (std::size_t b = 2 * PercentileSketch::kSubBuckets;
       b < PercentileSketch::kBuckets; ++b) {
    const auto [lo, hi] = PercentileSketch::bucket_range(b);
    EXPECT_EQ(lo, expected_lo) << "bucket " << b;
    EXPECT_LE(lo, hi);
    EXPECT_EQ(PercentileSketch::bucket_index(lo), b);
    EXPECT_EQ(PercentileSketch::bucket_index(hi), b);
    if (hi == ~std::uint64_t{0}) {
      EXPECT_EQ(b + 1, PercentileSketch::kBuckets);
      break;
    }
    expected_lo = hi + 1;
  }
}

TEST(PercentileSketchTest, SmallValuesAreExact) {
  PercentileSketch s;
  for (std::uint64_t v = 0; v < 2 * PercentileSketch::kSubBuckets; ++v) {
    s.record(v);
  }
  EXPECT_EQ(s.count(), 2 * PercentileSketch::kSubBuckets);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 2 * PercentileSketch::kSubBuckets - 1);
  // Values below 2 * kSubBuckets land in singleton buckets, so every
  // quantile is an exact sample: rank ceil(q * 32) - 1.
  EXPECT_EQ(s.quantile(0.0), 0u);
  EXPECT_EQ(s.p50(), 15u);
  EXPECT_EQ(s.p90(), 28u);
  EXPECT_EQ(s.quantile(1.0), 31u);
}

TEST(PercentileSketchTest, QuantilesHaveBoundedRelativeError) {
  PercentileSketch s;
  std::vector<std::uint64_t> values;
  std::uint64_t x = 1;
  for (int i = 0; i < 2000; ++i) {
    x = x * 2862933555777941757ull + 3037000493ull;  // splitmix-style walk
    const std::uint64_t v = (x >> 20) % 10'000'000;
    values.push_back(v);
    s.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = static_cast<double>(values[rank - 1]);
    const double approx = static_cast<double>(s.quantile(q));
    // One sub-bucket spans 1/16 of its power-of-two block and the sketch
    // answers with the bucket midpoint, so the error is below 1/32.
    EXPECT_NEAR(approx, exact, exact / 16.0 + 1.0) << "q=" << q;
  }
}

TEST(PercentileSketchTest, MergeMatchesCombinedRecordingExactly) {
  PercentileSketch a;
  PercentileSketch b;
  PercentileSketch combined;
  for (std::uint64_t v : {3u, 700u, 41u, 5u}) {
    a.record(v);
    combined.record(v);
  }
  for (std::uint64_t v : {1'000'000u, 2u, 900u}) {
    b.record(v, 2);
    combined.record(v, 2);
  }
  a.merge(b);
  EXPECT_EQ(a, combined);  // deterministic: same samples, same state
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), 1'000'000u);
  a.merge(PercentileSketch{});  // empty merge is a no-op
  EXPECT_EQ(a, combined);
}

TEST(PercentileSketchTest, QuantileClampsToObservedRange) {
  PercentileSketch s;
  s.record(1000);  // midpoint of 1000's bucket is below the sample
  EXPECT_EQ(s.quantile(0.0), 1000u);
  EXPECT_EQ(s.quantile(1.0), 1000u);
  EXPECT_EQ(PercentileSketch{}.quantile(0.5), 0u);  // empty: defined as 0
}

// ---- registry and helpers ---------------------------------------------------

TEST(MetricsRegistryTest, HelpersAreNoOpsWithoutARegistry) {
  ASSERT_EQ(metrics(), nullptr) << "another test leaked an installed registry";
  // Must not crash — this is the production disabled path.
  count("x");
  gauge_set("x", 1);
  gauge_max("x", 2);
  observe("x", 3);
  time_add("x", 0.5);
  label("x", "y");
}

TEST(MetricsRegistryTest, ScopedInstallRoutesHelpersAndRestores) {
  MetricsRegistry outer;
  {
    const ScopedMetrics install_outer(outer);
    EXPECT_EQ(metrics(), &outer);
    count("c", 2);
    {
      MetricsRegistry inner;
      const ScopedMetrics install_inner(inner);
      EXPECT_EQ(metrics(), &inner);
      count("c", 5);
      EXPECT_EQ(inner.snapshot().counters.at("c"), 5u);
    }
    EXPECT_EQ(metrics(), &outer);
    count("c");
    gauge_set("g", -3);
    gauge_max("g", 10);
    gauge_max("g", 4);  // below the high-water mark: ignored
    observe("h", 6, 2);
    time_add("t", 0.25);
    time_add("t", 0.25);
    label("l", "first");
    label("l", "second");
  }
  EXPECT_EQ(metrics(), nullptr);
  const MetricsSnapshot snap = outer.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), 10);
  EXPECT_EQ(snap.histograms.at("h").count, 2u);
  EXPECT_DOUBLE_EQ(snap.timings.at("t"), 0.5);
  EXPECT_EQ(snap.labels.at("l"), "second");
}

TEST(MetricsRegistryTest, ResetClears) {
  MetricsRegistry r;
  r.add("c");
  r.observe("h", 1);
  r.reset();
  EXPECT_TRUE(r.snapshot().empty());
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kPerThread; ++i) {
        r.add("shared");
        r.observe("hist", static_cast<std::uint64_t>(i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.counters.at("shared"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms.at("hist").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- snapshot views and algebra ---------------------------------------------

MetricsSnapshot sample_snapshot() {
  MetricsRegistry r;
  r.add("fol1.rounds", 3);
  r.add("fault.injected.els", 9);
  r.add("backend.simd.dispatch.avx2", 1);
  r.gauge_max("backend.simd.width", 8);
  r.gauge_max("fol1.depth", 2);
  r.observe("fol1.set_size", 100);
  r.observe("fault.burst", 5);
  r.time_add("vm.op.v.arith.wall_seconds", 0.5);
  r.label("backend.name", "simd");
  return r.snapshot();
}

TEST(MetricsSnapshotTest, DeterministicViewDropsHostState) {
  const MetricsSnapshot det = sample_snapshot().deterministic();
  EXPECT_TRUE(det.counters.contains("fol1.rounds"));
  EXPECT_FALSE(det.counters.contains("fault.injected.els"));
  EXPECT_FALSE(det.counters.contains("backend.simd.dispatch.avx2"));
  EXPECT_TRUE(det.gauges.contains("fol1.depth"));
  EXPECT_FALSE(det.gauges.contains("backend.simd.width"));
  EXPECT_TRUE(det.histograms.contains("fol1.set_size"));
  EXPECT_FALSE(det.histograms.contains("fault.burst"));
  EXPECT_TRUE(det.timings.empty());
  EXPECT_TRUE(det.labels.empty());
}

TEST(MetricsSnapshotTest, DiffSubtractsCountersAndHistograms) {
  MetricsRegistry r;
  r.add("c", 10);
  r.observe("h", 4, 2);
  const MetricsSnapshot before = r.snapshot();
  r.add("c", 7);
  r.add("fresh", 1);
  r.observe("h", 4);
  const MetricsSnapshot delta = MetricsSnapshot::diff(r.snapshot(), before);
  EXPECT_EQ(delta.counters.at("c"), 7u);
  EXPECT_EQ(delta.counters.at("fresh"), 1u);
  EXPECT_EQ(delta.histograms.at("h").count, 1u);
  EXPECT_EQ(delta.histograms.at("h").sum, 4u);
}

TEST(MetricsSnapshotTest, DiffKeysOnlyInBeforeYieldZeroDeltas) {
  MetricsRegistry r;
  r.add("gone.counter", 9);
  r.observe("gone.hist", 4);
  r.time_add("gone.timing", 1.5);
  r.gauge_max("gone.gauge", 7);
  r.label("gone.label", "x");
  const MetricsSnapshot before = r.snapshot();
  r.reset();
  r.add("kept", 2);
  const MetricsSnapshot delta = MetricsSnapshot::diff(r.snapshot(), before);
  // Accumulating families surface only-in-before keys as explicit zeros, so
  // consumers iterating the diff see the full key universe.
  EXPECT_EQ(delta.counters.at("gone.counter"), 0u);
  EXPECT_EQ(delta.counters.at("kept"), 2u);
  EXPECT_EQ(delta.histograms.at("gone.hist").count, 0u);
  EXPECT_DOUBLE_EQ(delta.timings.at("gone.timing"), 0.0);
  // Instantaneous families are `after` verbatim: only-in-before dropped.
  EXPECT_FALSE(delta.gauges.contains("gone.gauge"));
  EXPECT_FALSE(delta.labels.contains("gone.label"));
}

TEST(MetricsSnapshotTest, DiffClampsAcrossResetsAndKeepsGaugesVerbatim) {
  MetricsRegistry r;
  r.add("c", 100);
  r.observe("h", 8, 10);
  const MetricsSnapshot before = r.snapshot();
  r.reset();  // counters restart below their before values
  r.add("c", 3);
  r.observe("h", 8, 2);
  r.gauge_set("g", 5);
  const MetricsSnapshot delta = MetricsSnapshot::diff(r.snapshot(), before);
  EXPECT_EQ(delta.counters.at("c"), 0u);  // clamped, not wrapped
  EXPECT_EQ(delta.histograms.at("h").count, 0u);
  EXPECT_EQ(delta.histograms.at("h").sum, 0u);
  EXPECT_EQ(delta.gauges.at("g"), 5);  // after's instantaneous value
}

TEST(MetricsSnapshotTest, MergeAddsAndTakesGaugeMax) {
  MetricsSnapshot a = sample_snapshot();
  MetricsSnapshot b = sample_snapshot();
  b.gauges["fol1.depth"] = 1;  // below a's value: merge keeps the max
  a.merge(b);
  EXPECT_EQ(a.counters.at("fol1.rounds"), 6u);
  EXPECT_EQ(a.gauges.at("fol1.depth"), 2);
  EXPECT_EQ(a.histograms.at("fol1.set_size").count, 2u);
  EXPECT_DOUBLE_EQ(a.timings.at("vm.op.v.arith.wall_seconds"), 1.0);
}

TEST(MetricsSnapshotTest, TextAndJsonRenderings) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("counter   fol1.rounds = 3"), std::string::npos);
  EXPECT_NE(text.find("label     backend.name = simd"), std::string::npos);

  const JsonValue doc = JsonValue::parse(snap.to_json(-1));
  EXPECT_EQ(doc.find("counters")->find("fol1.rounds")->as_number(), 3.0);
  EXPECT_EQ(doc.find("labels")->find("backend.name")->as_string(), "simd");
  const JsonValue* hist = doc.find("histograms")->find("fol1.set_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_EQ(hist->find("buckets")->as_array().size(), 1u);
}

// ---- span tracer ------------------------------------------------------------

/// Parses the tracer's full Chrome trace-event export.
JsonValue parse_trace(const SpanTracer& tracer) {
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  return JsonValue::parse(os.str());
}

/// The events with phase `ph` ("X" slices, "M" metadata, "s"/"f" flow,
/// "C" counters), as pointers into `doc`, in file order.
std::vector<const JsonValue*> events_with_ph(const JsonValue& doc,
                                             const std::string& ph) {
  std::vector<const JsonValue*> out;
  for (const JsonValue& ev : doc.find("traceEvents")->as_array()) {
    if (ev.find("ph")->as_string() == ph) out.push_back(&ev);
  }
  return out;
}

/// (name, cat) of the "X" slice events, skipping thread metadata, flow,
/// and counter phases, in file order.
std::vector<std::pair<std::string, std::string>> trace_events(
    const SpanTracer& tracer) {
  const JsonValue doc = parse_trace(tracer);
  std::vector<std::pair<std::string, std::string>> out;
  for (const JsonValue* ev : events_with_ph(doc, "X")) {
    out.emplace_back(ev->find("name")->as_string(),
                     ev->find("cat")->as_string());
  }
  return out;
}

TEST(SpanTracerTest, NestedSpansCarryChimeDeltas) {
  SpanTracer tracer;
  tracer.begin("outer", 100, 1000);
  tracer.begin("inner", 140, 1400);
  tracer.end(150, 1500);  // inner: +10 instructions, +100 elements
  tracer.end(200, 2000);  // outer: +100 instructions, +1000 elements
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.open_depth(), 0u);

  const JsonValue doc = parse_trace(tracer);
  const std::vector<const JsonValue*> evs = events_with_ph(doc, "X");
  ASSERT_EQ(evs.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(evs[0]->find("name")->as_string(), "inner");
  EXPECT_EQ(evs[0]->find("args")->find("chime_instructions")->as_number(),
            10.0);
  EXPECT_EQ(evs[0]->find("args")->find("chime_elements")->as_number(), 100.0);
  EXPECT_EQ(evs[1]->find("name")->as_string(), "outer");
  EXPECT_EQ(evs[1]->find("args")->find("chime_instructions")->as_number(),
            100.0);
  // The inner span nests inside the outer one on the timeline.
  const double outer_ts = evs[1]->find("ts")->as_number();
  const double outer_dur = evs[1]->find("dur")->as_number();
  const double inner_ts = evs[0]->find("ts")->as_number();
  const double inner_dur = evs[0]->find("dur")->as_number();
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-9);
}

TEST(SpanTracerTest, OpEventsAndUnbalancedEnd) {
  SpanTracer tracer;
  const auto t0 = SpanTracer::Clock::now();
  tracer.op("v.gather", 128, t0, t0 + std::chrono::microseconds(5));
  tracer.end();  // unbalanced: ignored
  EXPECT_EQ(tracer.size(), 1u);
  const auto evs = trace_events(tracer);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0], (std::pair<std::string, std::string>{"v.gather", "op"}));
}

TEST(SpanTracerTest, CapacityDropsButCounts) {
  SpanTracer tracer(2);
  const auto t0 = SpanTracer::Clock::now();
  for (int i = 0; i < 5; ++i) tracer.op("v.arith", 1, t0, t0);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->as_number(), 3.0);
}

TEST(SpanTracerTest, OpenSpansAppearInOutputWithoutMutatingState) {
  SpanTracer tracer;
  tracer.begin("still_open");
  EXPECT_EQ(tracer.open_depth(), 1u);
  const auto evs = trace_events(tracer);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].first, "still_open");
  // The tracer itself still considers the span open.
  EXPECT_EQ(tracer.open_depth(), 1u);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.end();
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(SpanTracerTest, ScopedSpanOnlyRecordsWhenInstalled) {
  { const ScopedSpan off("ignored"); }  // no tracer installed: no-op

  SpanTracer tracer;
  {
    const ScopedTracer install(tracer);
    ASSERT_TRUE(tracing());
    const ScopedSpan named("phase");
    const ScopedSpan indexed("round", 7);
  }
  EXPECT_FALSE(tracing());
  const auto evs = trace_events(tracer);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].first, "round[7]");
  EXPECT_EQ(evs[1].first, "phase");
}

TEST(SpanTracerTest, ThreadsRecordOnSeparateNamedTracks) {
  SpanTracer tracer;
  EXPECT_EQ(tracer.track_count(), 1u);  // "main" registers eagerly
  const auto t0 = SpanTracer::Clock::now();
  tracer.op("v.arith", 8, t0, t0);
  std::thread worker([&tracer, t0] { tracer.op("v.gather", 16, t0, t0); });
  worker.join();  // quiescence: the join orders the worker's writes
  EXPECT_EQ(tracer.track_count(), 2u);
  EXPECT_EQ(tracer.size(), 2u);

  const JsonValue doc = parse_trace(tracer);
  EXPECT_EQ(doc.find("otherData")->find("tracks")->as_number(), 2.0);
  std::vector<std::string> names;
  std::set<double> metadata_tids;
  for (const JsonValue* m : events_with_ph(doc, "M")) {
    if (m->find("name")->as_string() != "thread_name") continue;
    names.push_back(m->find("args")->find("name")->as_string());
    metadata_tids.insert(m->find("tid")->as_number());
  }
  // Main's track exports first so deterministic events keep a stable order.
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "main");
  EXPECT_EQ(metadata_tids.size(), 2u);

  // Each op rides its recording thread's track: distinct real tids, both
  // announced by the metadata events.
  const std::vector<const JsonValue*> xs = events_with_ph(doc, "X");
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0]->find("name")->as_string(), "v.arith");
  EXPECT_EQ(xs[1]->find("name")->as_string(), "v.gather");
  EXPECT_NE(xs[0]->find("tid")->as_number(), xs[1]->find("tid")->as_number());
  for (const JsonValue* x : xs) {
    EXPECT_TRUE(metadata_tids.contains(x->find("tid")->as_number()));
  }
  // A track no thread named is labelled with its tid.
  const auto worker_tid =
      static_cast<std::uint64_t>(xs[1]->find("tid")->as_number());
  EXPECT_EQ(names[1], "thread-" + std::to_string(worker_tid));
}

TEST(SpanTracerTest, ConcurrentRecordingLosesNoEvents) {
  SpanTracer tracer;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  const auto t0 = SpanTracer::Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t0] {
      for (int i = 0; i < kPerThread; ++i) tracer.op("v.arith", 1, t0, t0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.track_count(), 1u + kThreads);
}

TEST(SpanTracerTest, CounterEventsCarrySampledValues) {
  SpanTracer tracer;
  tracer.counter("pool.buffer.words_in_use", 4.0);
  tracer.counter("pool.buffer.words_in_use", 0.0);
  const JsonValue doc = parse_trace(tracer);
  const std::vector<const JsonValue*> cs = events_with_ph(doc, "C");
  ASSERT_EQ(cs.size(), 2u);
  for (const JsonValue* c : cs) {
    EXPECT_EQ(c->find("name")->as_string(), "pool.buffer.words_in_use");
    EXPECT_EQ(c->find("cat")->as_string(), "counter");
  }
  EXPECT_EQ(cs[0]->find("args")->find("value")->as_number(), 4.0);
  EXPECT_EQ(cs[1]->find("args")->find("value")->as_number(), 0.0);
}

// ---- calibration profiler ---------------------------------------------------

TEST(ProfilerTest, HelpersAreNoOpsWithoutAProfiler) {
  ASSERT_EQ(profiler(), nullptr) << "another test leaked a profiler";
  profile_op("v.arith", 64, 1e-6);  // must not crash: the disabled path
}

TEST(ProfilerTest, FitRecoversAnExactLinearRelation) {
  Profiler p;
  // wall = 100ns + 5ns/element, sampled at several sizes.
  for (const std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    p.record("v.arith", n, (100.0 + 5.0 * static_cast<double>(n)) * 1e-9);
  }
  const auto snap = p.snapshot();
  ASSERT_TRUE(snap.contains("v.arith"));
  const Profiler::Series& series = snap.at("v.arith");
  EXPECT_EQ(series.samples, 5u);
  EXPECT_EQ(series.elements, 16u + 64u + 256u + 1024u + 4096u);
  const OpFit fit = series.fit();
  EXPECT_NEAR(fit.a_ns, 100.0, 1e-3);
  EXPECT_NEAR(fit.b_ns, 5.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
  EXPECT_NEAR(fit.rms_residual_ns, 0.0, 1e-2);
  // The sketch saw the same wall samples (in ns).
  EXPECT_EQ(series.wall_ns.count(), 5u);
  EXPECT_EQ(series.wall_ns.min(), 180u);
}

TEST(ProfilerTest, DegenerateSeriesFitIsTheMean) {
  Profiler p;
  p.record("v.scatter", 32, 500e-9);
  p.record("v.scatter", 32, 500e-9);  // zero variance in n
  const OpFit fit = p.snapshot().at("v.scatter").fit();
  EXPECT_NEAR(fit.a_ns, 500.0, 1e-6);
  EXPECT_DOUBLE_EQ(fit.b_ns, 0.0);
  EXPECT_DOUBLE_EQ(fit.r2, 1.0);  // constant samples: nothing to explain
}

TEST(ProfilerTest, SnapshotMergesAliasedNames) {
  // Series are keyed by pointer on the hot path; distinct pointers with
  // equal spellings must merge at snapshot time.
  static const char kName1[] = "v.gather";
  static const char kName2[] = "v.gather";
  Profiler p;
  p.record(kName1, 8, 1e-7);
  p.record(kName2, 16, 2e-7);
  const auto snap = p.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.at("v.gather").samples, 2u);
  EXPECT_EQ(snap.at("v.gather").elements, 24u);
}

TEST(ProfilerTest, ScopedInstallRoutesHelperAndRestores) {
  Profiler p;
  {
    const ScopedProfiler install(p);
    EXPECT_EQ(profiler(), &p);
    profile_op("v.arith", 4, 1e-8);
  }
  EXPECT_EQ(profiler(), nullptr);
  profile_op("v.arith", 4, 1e-8);  // not recorded: nothing installed
  EXPECT_EQ(p.snapshot().at("v.arith").samples, 1u);
  p.reset();
  EXPECT_TRUE(p.snapshot().empty());
}

// ---- env session ------------------------------------------------------------

class EnvSessionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("FOLVEC_TRACE_JSON");
    ::unsetenv("FOLVEC_METRICS");
  }
};

TEST_F(EnvSessionTest, InstallsRegistryAndRestores) {
  ASSERT_EQ(metrics(), nullptr);
  ASSERT_EQ(profiler(), nullptr);
  {
    EnvSession session;
    EXPECT_EQ(metrics(), &session.registry());
    EXPECT_EQ(profiler(), &session.session_profiler());
    EXPECT_EQ(session.span_tracer(), nullptr);  // no FOLVEC_TRACE_JSON
    count("session.counter", 4);
    EXPECT_EQ(session.registry().snapshot().counters.at("session.counter"),
              4u);
    profile_op("v.arith", 32, 1e-6);
    EXPECT_EQ(session.session_profiler().snapshot().at("v.arith").samples, 1u);
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(profiler(), nullptr);
}

TEST_F(EnvSessionTest, WritesTraceAndMetricsFiles) {
  const std::string trace_path = ::testing::TempDir() + "folvec_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "folvec_metrics.json";
  ::setenv("FOLVEC_TRACE_JSON", trace_path.c_str(), 1);
  ::setenv("FOLVEC_METRICS", metrics_path.c_str(), 1);
  {
    EnvSession session;
    ASSERT_NE(session.span_tracer(), nullptr);
    ASSERT_TRUE(session.trace_path().has_value());
    const ScopedSpan span("unit_test");
    count("session.file_counter", 2);
  }
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  const JsonValue trace = JsonValue::parse(trace_buf.str());
  const std::vector<const JsonValue*> slices = events_with_ph(trace, "X");
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0]->find("name")->as_string(), "unit_test");
  // The "main" track announces itself even in a single-threaded run.
  bool saw_main = false;
  for (const JsonValue* m : events_with_ph(trace, "M")) {
    saw_main = saw_main ||
               (m->find("name")->as_string() == "thread_name" &&
                m->find("args")->find("name")->as_string() == "main");
  }
  EXPECT_TRUE(saw_main);

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  const JsonValue snap = JsonValue::parse(metrics_buf.str());
  EXPECT_EQ(snap.find("counters")->find("session.file_counter")->as_number(),
            2.0);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace folvec::telemetry
