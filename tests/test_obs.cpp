// malnet::obs — metrics registry, the tracer (sim- and wall-clock spans),
// the minimal JSON parser, plus the end-to-end determinism contract: a
// sharded study's merged metrics snapshot is a pure function of
// (config, shards), byte-identical for any worker count, and its headline
// counters equal the StudyResults fields they shadow.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_study.hpp"
#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/slowlog.hpp"
#include "obs/window.hpp"
#include "sim/scheduler.hpp"

using namespace malnet;
using namespace malnet::obs;

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterAndGaugeSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram h({0, 10, 100});
  ASSERT_EQ(h.bucket_count(), 4u);  // three bounds + overflow
  h.record(-5);   // <= 0
  h.record(0);    // <= 0
  h.record(1);    // <= 10
  h.record(10);   // <= 10
  h.record(11);   // <= 100
  h.record(999);  // overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), -5 + 0 + 1 + 10 + 11 + 999);
}

TEST(Metrics, RegistryReturnsStableInstruments) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);

  // First registration's bounds win; a second registration with different
  // bounds hands back the existing histogram.
  Histogram& h1 = reg.histogram("h", {1, 2});
  Histogram& h2 = reg.histogram("h", {100, 200, 300});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<std::int64_t>{1, 2}));
}

TEST(Metrics, SnapshotCapturesAndRendersDeterministically) {
  Registry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  reg.gauge("g").set(-4);
  reg.histogram("h", {10}).record(7);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 1u);
  EXPECT_EQ(snap.counters.at("b"), 2u);
  EXPECT_EQ(snap.gauges.at("g"), -4);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  const std::string json = snap.to_json();
  EXPECT_EQ(json, reg.snapshot().to_json()) << "rendering must be stable";
  // Keys render sorted, so "a" precedes "b" regardless of creation order.
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));

  const auto doc = json::parse(json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->at_path("counters.a"), nullptr);
  EXPECT_EQ(doc->at_path("counters.a")->number, 1.0);
  EXPECT_EQ(doc->at_path("gauges.g")->number, -4.0);
  ASSERT_NE(doc->at_path("histograms.h"), nullptr);
  EXPECT_TRUE(doc->at_path("histograms.h.bounds")->is_array());
}

namespace {

MetricsSnapshot make_snapshot(std::uint64_t a, std::uint64_t shared,
                              std::int64_t hist_value) {
  Registry reg;
  reg.counter("only_" + std::to_string(a)).inc(a);
  reg.counter("shared").inc(shared);
  reg.gauge("level").add(static_cast<std::int64_t>(shared));
  reg.histogram("dist", {0, 10, 100}).record(hist_value);
  return reg.snapshot();
}

}  // namespace

TEST(Metrics, MergeIsOrderIndependentAndAssociative) {
  const MetricsSnapshot s1 = make_snapshot(1, 10, 5);
  const MetricsSnapshot s2 = make_snapshot(2, 20, 50);
  const MetricsSnapshot s3 = make_snapshot(3, 30, 500);

  MetricsSnapshot abc = s1;
  abc.merge(s2);
  abc.merge(s3);

  MetricsSnapshot cba = s3;
  cba.merge(s2);
  cba.merge(s1);

  MetricsSnapshot a_bc = s1;
  {
    MetricsSnapshot bc = s2;
    bc.merge(s3);
    a_bc.merge(bc);
  }

  EXPECT_EQ(abc.to_json(), cba.to_json());
  EXPECT_EQ(abc.to_json(), a_bc.to_json());
  EXPECT_EQ(abc.counters.at("shared"), 60u);
  EXPECT_EQ(abc.histograms.at("dist").count, 3u);
  EXPECT_EQ(abc.histograms.at("dist").sum, 555);
}

TEST(Metrics, MergeRejectsMismatchedHistogramBounds) {
  Registry r1, r2;
  r1.histogram("h", {1, 2}).record(1);
  r2.histogram("h", {5}).record(1);
  MetricsSnapshot a = r1.snapshot();
  const MetricsSnapshot b = r2.snapshot();
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- tracer ------------------------------------------------------------------

TEST(Trace, DisabledTracerBuffersNothing) {
  Tracer t;
  t.instant("x", "cat");
  t.complete("y", "cat", 0);
  t.span("z", "serve", 0, 1, 1, 1);
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Trace, RecordsAgainstTheSimClock) {
  Tracer t;
  std::int64_t sim_now = 1'000;
  t.set_enabled(true);
  t.set_sim_clock([&sim_now]() { return sim_now; });

  t.instant("boot", "pipeline", "\"k\":1");
  sim_now = 5'000;
  t.complete("run", "sandbox", 1'000);

  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].sim_us, 1'000);
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].sim_us, 1'000);
  EXPECT_EQ(events[1].dur_us, 4'000);
}

TEST(Trace, CapacityBoundsTheBuffer) {
  // Sim-clock and wall-clock records count against the same bound.
  Tracer t(3);
  t.set_enabled(true);
  t.instant("e", "cat");
  for (int i = 0; i < 5; ++i) t.span("s", "serve", i, 1, 7, 1);
  t.complete("c", "cat", 0);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(t.dropped(), 4u);
  EXPECT_EQ(events[0].clock, 's');
  EXPECT_EQ(events[1].clock, 'w');
  EXPECT_EQ(events[1].trace_id, 7u);
}

TEST(Trace, ChromeExportRoundTripsThroughTheJsonParser) {
  Tracer t;
  t.set_enabled(true);
  std::int64_t sim_now = 42;
  t.set_sim_clock([&sim_now]() { return sim_now; });
  t.instant("quo\"ted\n", "pipeline", "\"c2\":\"60.1.2.3:23\"");
  sim_now = 99;
  t.complete("span", "sandbox", 42);

  std::ostringstream os;
  write_chrome_trace(os, t.snapshot());
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  const json::Value& instant = events->array[0];
  EXPECT_EQ(instant.find("ph")->str, "i");
  EXPECT_EQ(instant.find("ts")->number, 42.0);
  ASSERT_NE(instant.find("args"), nullptr);
  EXPECT_EQ(instant.find("args")->find("c2")->str, "60.1.2.3:23");

  const json::Value& span = events->array[1];
  EXPECT_EQ(span.find("ph")->str, "X");
  EXPECT_EQ(span.find("dur")->number, 57.0);
  EXPECT_EQ(span.find("cat")->str, "sandbox");
}

// --- json parser -------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const auto doc = json::parse(R"({"n":-1.5e2,"s":"a\"b","t":true,"z":null,
                                   "arr":[1,2,3],"o":{"k":1}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("n")->number, -150.0);
  EXPECT_EQ(doc->find("s")->str, "a\"b");
  EXPECT_TRUE(doc->find("t")->boolean);
  EXPECT_EQ(doc->find("z")->type, json::Value::Type::kNull);
  EXPECT_EQ(doc->find("arr")->array.size(), 3u);
  EXPECT_EQ(doc->at_path("o.k")->number, 1.0);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("[1,2,]").has_value());
  EXPECT_FALSE(json::parse("{} trailing").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
}

TEST(Json, DottedPathPrefersFullMemberNames) {
  // Metric names contain dots ("net.packets_sent"); at_path must try the
  // whole remainder as one member before splitting at the first dot.
  const auto doc = json::parse(
      R"({"counters":{"net.packets_sent":7,"net":{"packets_sent":1}}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->at_path("counters.net.packets_sent"), nullptr);
  EXPECT_EQ(doc->at_path("counters.net.packets_sent")->number, 7.0);
  EXPECT_EQ(doc->at_path("counters.missing"), nullptr);
}

// --- profiler ----------------------------------------------------------------

TEST(Profile, ScopedTimerAccumulates) {
  ProfileSnapshot p;
  {
    ScopedTimer t(p[Phase::kFinalize]);
  }
  {
    ScopedTimer t(p[Phase::kFinalize]);
  }
  EXPECT_EQ(p[Phase::kFinalize].entries, 2u);
  EXPECT_EQ(p.total_sim_events(), 0u);
}

TEST(Profile, MergeAddsAndTableRenders) {
  ProfileSnapshot a, b;
  a[Phase::kSandbox] = {100, 10, 5, 1};
  b[Phase::kSandbox] = {50, 4, 2, 1};
  b[Phase::kCampaign] = {7, 3, 1, 1};
  a.merge(b);
  EXPECT_EQ(a[Phase::kSandbox].wall_ns, 150u);
  EXPECT_EQ(a[Phase::kSandbox].sim_events, 14u);
  EXPECT_EQ(a[Phase::kSandbox].ops, 7u);
  EXPECT_EQ(a.total_sim_events(), 17u);

  const std::string table = a.render_table();
  EXPECT_NE(table.find("sandbox"), std::string::npos);
  EXPECT_NE(table.find("campaign"), std::string::npos);
  // Idle phases are not rendered.
  EXPECT_EQ(table.find("live-watch"), std::string::npos);
}

// --- scheduler phase tags ----------------------------------------------------

TEST(PhaseTags, EventsInheritAndRestoreTheAmbientTag) {
  sim::EventScheduler sched;
  std::uint64_t chained_tag = 99;
  {
    sim::ScopedPhaseTag tag(sched, static_cast<sim::PhaseTag>(Phase::kProbe));
    sched.after(sim::Duration::seconds(1), [&sched, &chained_tag]() {
      // Firing restored kProbe as ambient, so this chained event inherits it.
      sched.after(sim::Duration::seconds(1),
                  [&sched, &chained_tag]() { chained_tag = sched.phase_tag(); });
    });
  }
  ASSERT_EQ(sched.phase_tag(), 0) << "scope must restore the previous tag";
  sched.after(sim::Duration::seconds(1), []() {});  // untagged
  sched.run();
  EXPECT_EQ(chained_tag, static_cast<std::uint64_t>(Phase::kProbe));
  EXPECT_EQ(sched.executed_by_tag(static_cast<sim::PhaseTag>(Phase::kProbe)), 2u);
  EXPECT_EQ(sched.executed_by_tag(0), 1u);
  EXPECT_EQ(sched.executed(), 3u);
}

TEST(PhaseTags, OutOfRangeTagsFoldToOther) {
  sim::EventScheduler sched;
  sched.set_phase_tag(200);
  EXPECT_EQ(sched.phase_tag(), 0);
}

// --- end-to-end: the sharded-study determinism contract ----------------------

namespace {

core::ParallelStudyConfig small_study(int shards, int jobs) {
  core::ParallelStudyConfig cfg;
  cfg.base.seed = 22;
  cfg.base.world.total_samples = 120;
  cfg.base.run_probe_campaign = false;
  cfg.shards = shards;
  cfg.jobs = jobs;
  return cfg;
}

}  // namespace

TEST(ObsStudy, MetricsAreByteIdenticalAcrossWorkerCounts) {
  const auto serial = core::ParallelStudy(small_study(3, 1)).run();
  const auto contended = core::ParallelStudy(small_study(3, 3)).run();
  EXPECT_EQ(serial.metrics.to_json(), contended.metrics.to_json())
      << "metrics depend on thread scheduling";
  ASSERT_EQ(serial.shard_metrics.size(), 3u);
  ASSERT_EQ(contended.shard_metrics.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(serial.shard_metrics[i].to_json(),
              contended.shard_metrics[i].to_json())
        << "shard " << i;
  }
}

TEST(ObsStudy, TracingAndWallProfilingLeaveMetricsUnchanged) {
  auto cfg = small_study(3, 3);
  const auto plain = core::ParallelStudy(cfg).run();
  cfg.base.trace = true;
  cfg.base.profile_wall = true;
  const auto instrumented = core::ParallelStudy(cfg).run();
  EXPECT_EQ(plain.metrics.to_json(), instrumented.metrics.to_json());
}

TEST(ObsStudy, MergedCountersEqualStudyResultsFields) {
  const auto results = core::ParallelStudy(small_study(3, 3)).run();
  const auto& c = results.metrics.counters;
  EXPECT_EQ(c.at("sandbox_runs"), results.sandbox_runs);
  EXPECT_EQ(c.at("sim_events"), results.sim_events);
  EXPECT_EQ(c.at("samples_analysed"), results.d_samples.size());
  EXPECT_EQ(c.at("non_mips_skipped"), results.non_mips_skipped);
  EXPECT_EQ(c.at("ddos_records"), results.d_ddos.size());

  // The merged snapshot is exactly the shard snapshots folded in order.
  MetricsSnapshot refolded = results.shard_metrics[0];
  for (std::size_t i = 1; i < results.shard_metrics.size(); ++i) {
    refolded.merge(results.shard_metrics[i]);
  }
  EXPECT_EQ(refolded.to_json(), results.metrics.to_json());
}

TEST(ObsStudy, TraceMergeLabelsShardsAndExportParses) {
  auto cfg = small_study(2, 2);
  cfg.base.world.total_samples = 60;
  cfg.base.trace = true;
  const auto results = core::ParallelStudy(cfg).run();
  ASSERT_FALSE(results.trace.empty());
  bool saw_shard[2] = {false, false};
  for (const auto& e : results.trace) {
    ASSERT_GE(e.pid, 0);
    ASSERT_LT(e.pid, 2);
    saw_shard[e.pid] = true;
  }
  EXPECT_TRUE(saw_shard[0]);
  EXPECT_TRUE(saw_shard[1]);

  std::ostringstream os;
  write_chrome_trace(os, results.trace);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->array.size(), results.trace.size());
}

TEST(ObsStudy, ProfileAttributesTheEventLoop) {
  auto cfg = small_study(1, 1);
  cfg.base.world.total_samples = 60;
  cfg.base.profile_wall = true;
  const auto results = core::ParallelStudy(cfg).run();
  const auto& prof = results.profile;
  EXPECT_EQ(prof.total_sim_events(), results.sim_events);
  EXPECT_GT(prof[Phase::kSandbox].sim_events, 0u);
  EXPECT_EQ(prof[Phase::kSandbox].ops, results.sandbox_runs);
  EXPECT_GT(prof[Phase::kCollect].entries, 0u);
  EXPECT_GT(prof.total_wall_ns(), 0u);
}

// --- quantile estimation (DESIGN.md §15) -------------------------------------

TEST(Quantile, EmptyHistogramHasNoQuantile) {
  HistogramSnapshot h;
  h.bounds = {10, 100};
  h.counts = {0, 0, 0};
  EXPECT_FALSE(h.quantile(0.5).has_value());

  MetricsSnapshot snap;
  snap.histograms["h"] = h;
  EXPECT_FALSE(snap.quantile("h", 0.5).has_value());
  EXPECT_FALSE(snap.quantile("no-such-histogram", 0.5).has_value());
}

TEST(Quantile, SingleBucketInterpolatesLinearly) {
  // All 100 observations in (0, 100]: the q-quantile is q * 100.
  HistogramSnapshot h;
  h.bounds = {100};
  h.counts = {100, 0};
  h.count = 100;
  ASSERT_TRUE(h.quantile(0.5).has_value());
  EXPECT_NEAR(*h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(*h.quantile(0.99), 99.0, 1.0);
  // Clamped q never leaves the bucket range.
  EXPECT_GE(*h.quantile(-1.0), 0.0);
  EXPECT_LE(*h.quantile(2.0), 100.0);
}

TEST(Quantile, OverflowBucketClampsToLastFiniteBound) {
  HistogramSnapshot h;
  h.bounds = {10, 100};
  h.counts = {1, 1, 98};  // nearly everything above the last bound
  h.count = 100;
  EXPECT_EQ(*h.quantile(0.99), 100.0);
  // The rank inside a finite bucket still interpolates.
  EXPECT_LE(*h.quantile(0.01), 10.0);
}

TEST(Quantile, MedianCrossesBuckets) {
  Histogram h({10, 20, 40});
  for (int i = 0; i < 10; ++i) h.record(5);    // (0,10]
  for (int i = 0; i < 10; ++i) h.record(15);   // (10,20]
  for (int i = 0; i < 10; ++i) h.record(35);   // (20,40]
  Registry reg;
  auto& rh = reg.histogram("lat", {10, 20, 40});
  for (int i = 0; i < 10; ++i) rh.record(5);
  for (int i = 0; i < 10; ++i) rh.record(15);
  for (int i = 0; i < 10; ++i) rh.record(35);
  const auto snap = reg.snapshot();
  const auto q50 = snap.quantile("lat", 0.5);
  ASSERT_TRUE(q50.has_value());
  EXPECT_GT(*q50, 10.0);
  EXPECT_LE(*q50, 20.0);
  const auto q99 = snap.quantile("lat", 0.99);
  ASSERT_TRUE(q99.has_value());
  EXPECT_GT(*q99, 20.0);
  EXPECT_LE(*q99, 40.0);
}

// --- registry namespaces (collision-shadowing regression) --------------------

TEST(Metrics, NamespaceRejectsForeignNames) {
  Registry reg;
  reg.set_namespace("store.");
  EXPECT_EQ(reg.name_namespace(), "store.");
  (void)reg.counter("store.queries");  // fine
  EXPECT_THROW((void)reg.counter("serve.requests"), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("requests"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("sync.lat", {1}), std::invalid_argument);
}

TEST(Metrics, NamespaceValidatesExistingInstruments) {
  Registry reg;
  (void)reg.counter("serve.requests");
  // Claiming a namespace the existing names violate must throw — this is
  // the guard against two registries merging colliding families.
  EXPECT_THROW(reg.set_namespace("store."), std::invalid_argument);
  reg.set_namespace("serve.");  // consistent claim succeeds
  (void)reg.counter("serve.bytes_tx");
}

TEST(Metrics, NamespacedRegistriesMergeWithoutShadowing) {
  Registry store_reg, serve_reg;
  store_reg.set_namespace("store.");
  serve_reg.set_namespace("serve.");
  store_reg.counter("store.queries").inc(3);
  serve_reg.counter("serve.requests").inc(5);
  auto merged = store_reg.snapshot();
  merged.merge(serve_reg.snapshot());
  EXPECT_EQ(merged.counters.at("store.queries"), 3u);
  EXPECT_EQ(merged.counters.at("serve.requests"), 5u);
}

// --- windowed aggregation ----------------------------------------------------

namespace {

MetricsSnapshot counter_snap(std::uint64_t requests) {
  MetricsSnapshot s;
  s.counters["serve.requests"] = requests;
  s.gauges["serve.connections_active"] = static_cast<std::int64_t>(requests / 10);
  return s;
}

}  // namespace

TEST(SnapshotRing, WindowNeedsTwoSamples) {
  SnapshotRing ring;
  EXPECT_FALSE(ring.window(1'000'000).has_value());
  ring.push(1'000'000, counter_snap(10));
  EXPECT_FALSE(ring.window(1'000'000).has_value());
}

TEST(SnapshotRing, WindowDeltasAndGaugeLevels) {
  SnapshotRing ring;
  ring.push(1'000'000, counter_snap(10));
  ring.push(2'000'000, counter_snap(30));
  ring.push(3'000'000, counter_snap(60));
  const auto w = ring.window(2'000'000);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(w->seconds, 2.0);
  EXPECT_EQ(w->delta.counters.at("serve.requests"), 50u);  // 60 - 10
  // Gauges are levels, not rates: the newest value wins.
  EXPECT_EQ(w->delta.gauges.at("serve.connections_active"), 6);
  // A shorter window uses the closest covering sample.
  const auto w1 = ring.window(1'000'000);
  ASSERT_TRUE(w1.has_value());
  EXPECT_EQ(w1->delta.counters.at("serve.requests"), 30u);  // 60 - 30
}

TEST(SnapshotRing, ClampsRegressionsAndDropsStaleSamples) {
  SnapshotRing ring;
  ring.push(2'000'000, counter_snap(100));
  ring.push(1'000'000, counter_snap(999));  // stale timestamp: dropped
  ring.push(3'000'000, counter_snap(40));   // counter went backwards
  const auto w = ring.window(10'000'000);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->delta.counters.at("serve.requests"), 0u);  // clamped, no wrap
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SnapshotRing, BoundedCapacityEvictsOldest) {
  SnapshotRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.push(i * 1'000'000, counter_snap(static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(ring.size(), 4u);
  const auto w = ring.window(60'000'000);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(w->seconds, 3.0);  // only the retained span
}

// --- slow-request log --------------------------------------------------------

namespace {

SlowEntry slow_entry(std::int64_t latency_us, std::string op = "query:totals") {
  SlowEntry e;
  e.op = std::move(op);
  e.peer = "127.0.0.1:9";
  e.latency_us = latency_us;
  e.bytes = 42;
  return e;
}

}  // namespace

TEST(SlowLog, ThresholdGatesAndCapacityKeepsSlowest) {
  SlowLog log(/*capacity=*/3, /*threshold_us=*/100);
  log.record(slow_entry(50));  // below threshold: ignored
  EXPECT_EQ(log.seen(), 0u);
  for (const auto lat : {100, 300, 200, 900, 150}) log.record(slow_entry(lat));
  EXPECT_EQ(log.seen(), 5u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].latency_us, 900);
  EXPECT_EQ(entries[1].latency_us, 300);
  EXPECT_EQ(entries[2].latency_us, 200);
}

TEST(SlowLog, ReconfigureShrinksAndRethresholds) {
  SlowLog log(8, 0);
  for (int i = 1; i <= 8; ++i) log.record(slow_entry(i * 10));
  log.configure(/*capacity=*/2, /*threshold_us=*/1'000);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].latency_us, 80);
  EXPECT_EQ(entries[1].latency_us, 70);
  log.record(slow_entry(500));  // now below the raised threshold
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.threshold_us(), 1'000);
}

TEST(SlowLog, RenderTextCarriesTraceIds) {
  SlowLog log(4, 0);
  auto traced = slow_entry(123, "sync:put");
  traced.trace_id = 0xABCD;
  traced.span_id = 2;
  log.record(traced);
  log.record(slow_entry(50));
  const auto text = log.render_text();
  EXPECT_NE(text.find("slowlog threshold_us=0 seen=2 retained=2"),
            std::string::npos);
  EXPECT_NE(text.find("op=sync:put"), std::string::npos);
  EXPECT_NE(text.find("trace=0x000000000000abcd"), std::string::npos);
  EXPECT_NE(text.find("trace=-"), std::string::npos);
}

// --- json writer -------------------------------------------------------------

TEST(Json, WriteRoundTripsDeterministically) {
  const std::string doc =
      R"({"b":[1,2.5,true,null],"a":{"nested":"va\"l\nue"},"big":123456789012})";
  const auto parsed = json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  const auto once = json::write(*parsed);
  const auto reparsed = json::parse(once);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(json::write(*reparsed), once);  // fixed point
  // Keys are sorted, integral doubles have no fraction.
  EXPECT_EQ(once.find("\"a\""), 1u);
  EXPECT_NE(once.find("123456789012"), std::string::npos);
  EXPECT_EQ(once.find("123456789012.0"), std::string::npos);
}

// --- wall-clock spans and cross-node trace merging ---------------------------

TEST(Trace, SpanRecordsWallClockSpanWithIds) {
  Tracer tracer;
  tracer.set_enabled(true);
  const auto start = wall_now_us();
  tracer.span("op", "serve", start - 1'000, 1'000, 0xBEEF, 42, "\"bytes\":7");
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const auto& ev = events[0];
  EXPECT_EQ(ev.phase, 'X');
  EXPECT_EQ(ev.clock, 'w');
  EXPECT_EQ(ev.dur_us, 1'000);
  EXPECT_EQ(ev.wall_us, start - 1'000);
  EXPECT_EQ(ev.trace_id, 0xBEEFu);
  EXPECT_EQ(ev.span_id, 42u);
  EXPECT_EQ(ev.args_json, "\"bytes\":7");
}

TEST(Trace, ConcurrentSpansAreBoundedAndCounted) {
  constexpr int kWriters = 4;
  constexpr int kSpansEach = 1000;
  constexpr std::size_t kCapacity = 2500;
  Tracer tracer(kCapacity);
  tracer.set_enabled(true);
  std::atomic<bool> done{false};
  std::vector<std::size_t> sizes;  // snapshot sizes seen while writers run
  std::thread reader([&] {
    do {
      sizes.push_back(tracer.snapshot().size());
    } while (!done.load());
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, w] {
      for (int i = 0; i < kSpansEach; ++i) {
        tracer.span("rpc", "serve", i, 1, static_cast<std::uint64_t>(w) + 1,
                    static_cast<std::uint64_t>(i) + 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(tracer.snapshot().size(), kCapacity);
  EXPECT_EQ(tracer.dropped(), kWriters * kSpansEach - kCapacity);
  ASSERT_FALSE(sizes.empty());
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  EXPECT_LE(sizes.back(), kCapacity);
}

TEST(Trace, MergeChromeTracesStampsPidsAndProcessNames) {
  Tracer client(16), server(16);
  client.set_enabled(true);
  server.set_enabled(true);
  client.span("sync:put", "sync", 1'000, 500, 0xBEEF, 1, "\"bytes\":9");
  server.span("serve:sync:put", "sync", 1'100, 300, 0xBEEF, 1);
  const auto merged = merge_chrome_traces(
      {{"sync-client", chrome_trace_json(client.snapshot())},
       {"serve", chrome_trace_json(server.snapshot())}});
  ASSERT_TRUE(merged.has_value());
  const auto doc = json::parse(*merged);
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  int metadata = 0, spans_seen = 0;
  for (const auto& ev : events->array) {
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") {
      ++metadata;
      continue;
    }
    ++spans_seen;
    const auto* pid = ev.find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_TRUE(pid->number == 0.0 || pid->number == 1.0);
    const auto* trace = ev.at_path("args.trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->str, "0x000000000000beef");
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(spans_seen, 2);
}

TEST(Trace, MergeChromeTracesRejectsMalformedDocuments) {
  EXPECT_FALSE(merge_chrome_traces({{"a", "not json"}}).has_value());
  EXPECT_FALSE(merge_chrome_traces({{"a", "{\"no\":\"events\"}"}}).has_value());
}
