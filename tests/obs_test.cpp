// The telemetry layer (src/obs): merged metric snapshots must be
// bit-identical across runs and thread counts (merge is by summation,
// which is associative/commutative), disabled telemetry must be a
// no-op, and the phase tracer must emit structurally valid Chrome
// trace-event JSON (the same format exp_cli --trace-out writes and
// Perfetto loads).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/json.hpp"

namespace ssno::obs {
namespace {

/// Runs `totalOps` counter increments and histogram observations,
/// partitioned over `threads` workers, on a fresh registry; returns the
/// merged snapshot.  The op sequence depends only on the op index, so
/// every thread count performs the identical multiset of writes.
std::vector<MetricSnapshot> hammer(int threads, int totalOps) {
  Registry reg;
  const Counter ops = reg.counter("test_ops_total");
  const Counter evens = reg.counter("test_evens_total");
  const Histogram sizes = reg.histogram("test_sizes");
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (int i = w; i < totalOps; i += threads) {
        ops.inc();
        if (i % 2 == 0) evens.inc(2);
        sizes.observe(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return reg.snapshot();
}

void expectSnapshotsEqual(const std::vector<MetricSnapshot>& a,
                          const std::vector<MetricSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
    EXPECT_EQ(a[i].gaugeValue, b[i].gaugeValue) << a[i].name;
    EXPECT_EQ(a[i].buckets, b[i].buckets) << a[i].name;
    EXPECT_EQ(a[i].count, b[i].count) << a[i].name;
    EXPECT_EQ(a[i].sum, b[i].sum) << a[i].name;
  }
}

TEST(Metrics, MergedSnapshotIsThreadCountIndependent) {
  constexpr int kOps = 20'000;
  const auto one = hammer(1, kOps);
  for (const int threads : {2, 4, 8})
    expectSnapshotsEqual(one, hammer(threads, kOps));
  // And across repeated runs at the same thread count.
  expectSnapshotsEqual(hammer(4, kOps), hammer(4, kOps));
}

TEST(Metrics, CounterAndHistogramTotals) {
  Registry reg;
  const Counter c = reg.counter("a_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(reg.counterValue("a_total"), 42u);
  EXPECT_EQ(reg.counterValue("never_registered"), 0u);

  const Histogram h = reg.histogram("lat_ns");
  h.observe(0);
  h.observe(1);
  h.observe(7);    // bit_width 3 -> bucket 3
  h.observe(8);    // bit_width 4 -> bucket 4
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);  // sorted by name: a_total, lat_ns
  EXPECT_EQ(snap[0].name, "a_total");
  const MetricSnapshot& hs = snap[1];
  EXPECT_EQ(hs.name, "lat_ns");
  EXPECT_EQ(hs.count, 4u);
  EXPECT_EQ(hs.sum, 16u);
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[3], 1u);
  EXPECT_EQ(hs.buckets[4], 1u);
}

TEST(Metrics, HistogramBucketGeometry) {
  EXPECT_EQ(histogramBucket(0), 0);
  EXPECT_EQ(histogramBucket(1), 1);
  EXPECT_EQ(histogramBucket(2), 2);
  EXPECT_EQ(histogramBucket(3), 2);
  EXPECT_EQ(histogramBucket(4), 3);
  EXPECT_EQ(histogramBucket(1023), 10);
  EXPECT_EQ(histogramBucket(1024), 11);
  EXPECT_EQ(histogramBucket(~0ull), kHistogramBuckets - 1);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  Registry reg;
  const Counter a = reg.counter("same");
  const Counter b = reg.counter("same");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.counterValue("same"), 2u);
  EXPECT_THROW((void)reg.histogram("same"), std::logic_error);
  EXPECT_THROW((void)reg.gauge("same"), std::logic_error);
}

TEST(Metrics, DisabledWritesAreNoOps) {
  Registry reg;
  const Counter c = reg.counter("c_total");
  const Gauge g = reg.gauge("g");
  const Histogram h = reg.histogram("h_ns");
  ASSERT_TRUE(enabled());  // default-on
  setEnabled(false);
  c.inc(5);
  g.set(7);
  h.observe(9);
  {
    const ScopedTimer t(h);  // must not even read the clock
  }
  setEnabled(true);
  const auto snap = reg.snapshot();
  for (const MetricSnapshot& s : snap) {
    EXPECT_EQ(s.value, 0u) << s.name;
    EXPECT_EQ(s.gaugeValue, 0) << s.name;
    EXPECT_EQ(s.count, 0u) << s.name;
  }
  // Default-constructed (unregistered) handles are also inert.
  Counter{}.inc();
  Gauge{}.set(1);
  Histogram{}.observe(1);
}

TEST(Metrics, GaugeSetAddValue) {
  Registry reg;
  const Gauge g = reg.gauge("depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_EQ(snap[0].gaugeValue, 7);
}

TEST(Metrics, ScopedTimerFeedsHistogram) {
  Registry reg;
  const Histogram h = reg.histogram("t_ns");
  { const ScopedTimer t(h); }
  { const ScopedTimer t(h); }
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 2u);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandles) {
  Registry reg;
  const Counter c = reg.counter("r_total");
  c.inc(9);
  reg.reset();
  EXPECT_EQ(reg.counterValue("r_total"), 0u);
  c.inc();
  EXPECT_EQ(reg.counterValue("r_total"), 1u);
}

TEST(Metrics, PrometheusExposition) {
  Registry reg;
  reg.counter("req_total").inc(3);
  reg.gauge("depth").set(-2);
  const Histogram h = reg.histogram("lat_ns");
  h.observe(0);
  h.observe(5);  // bucket 3, le = 7
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(text.find("# TYPE req_total counter\nreq_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"7\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 2\n"), std::string::npos);
}

// ---------------------------------------------------------------- trace

/// Finds the single event named `name`; fails the test when absent.
const serve::JsonValue* findEvent(const serve::JsonValue& events,
                                  const std::string& name) {
  for (const serve::JsonValue& e : events.asArray()) {
    const serve::JsonValue* n = e.find("name");
    if (n != nullptr && n->asString() == name) return &e;
  }
  return nullptr;
}

TEST(Trace, GoldenChromeTraceStructure) {
  startTracing();
  {
    TraceSpan outer("outer_phase");
    outer.arg("items", 42);
    {
      TraceSpan inner("inner_phase");
      inner.arg("k", 7);
    }
    traceInstant("milestone");
  }
  stopTracing();

  const serve::JsonValue doc = serve::JsonValue::parse(traceJson());
  const serve::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->asArray().size(), 3u);

  // Every event carries the Chrome trace-event schema fields.
  for (const serve::JsonValue& e : events->asArray()) {
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    EXPECT_EQ(e.find("cat")->asString(), "ssno");
    const std::string ph = e.find("ph")->asString();
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
    }
  }

  const serve::JsonValue* outer = findEvent(*events, "outer_phase");
  const serve::JsonValue* inner = findEvent(*events, "inner_phase");
  const serve::JsonValue* mark = findEvent(*events, "milestone");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);

  // Nesting containment: the inner span's [ts, ts+dur] lies inside the
  // outer span's, and the instant falls inside the outer span too.
  const double oT0 = outer->find("ts")->asNumber();
  const double oT1 = oT0 + outer->find("dur")->asNumber();
  const double iT0 = inner->find("ts")->asNumber();
  const double iT1 = iT0 + inner->find("dur")->asNumber();
  EXPECT_GE(iT0, oT0);
  EXPECT_LE(iT1, oT1);
  const double mT = mark->find("ts")->asNumber();
  EXPECT_GE(mT, oT0);
  EXPECT_LE(mT, oT1);
  EXPECT_EQ(mark->find("ph")->asString(), "i");

  // Args survive the round trip.
  const serve::JsonValue* args = outer->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("items")->asNumber(), 42.0);
  EXPECT_EQ(inner->find("args")->find("k")->asNumber(), 7.0);

  clearTrace();
  EXPECT_EQ(serve::JsonValue::parse(traceJson())
                .find("traceEvents")
                ->asArray()
                .size(),
            0u);
}

TEST(Trace, SpansOutsideSessionAreFree) {
  ASSERT_FALSE(tracingEnabled());
  {
    TraceSpan s("never_recorded");
    s.arg("x", 1);
  }
  traceInstant("also_never");
  startTracing();
  stopTracing();
  const serve::JsonValue doc = serve::JsonValue::parse(traceJson());
  EXPECT_EQ(doc.find("traceEvents")->asArray().size(), 0u);
}

TEST(Trace, MultiThreadedSpansAllRecorded) {
  startTracing();
  constexpr int kThreads = 4;
  constexpr int kSpansPer = 50;
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w)
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) TraceSpan span("worker_span");
    });
  for (std::thread& th : pool) th.join();
  stopTracing();
  const serve::JsonValue doc = serve::JsonValue::parse(traceJson());
  EXPECT_EQ(doc.find("traceEvents")->asArray().size(),
            static_cast<std::size_t>(kThreads * kSpansPer));
  EXPECT_EQ(traceDroppedEvents(), 0u);
  clearTrace();
}

}  // namespace
}  // namespace ssno::obs
