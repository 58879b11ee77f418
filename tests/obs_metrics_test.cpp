// MetricsRegistry semantics: counter/gauge/histogram behavior, thread-sharded
// merge determinism, span aggregation, exposition formats, and snapshot
// isolation between concurrent harness runs (jobs=1 must equal jobs=4).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/harness/runner.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterAccumulatesAcrossAdds) {
  MetricsRegistry registry;
  registry.CounterAdd("ticks", 1);
  registry.CounterAdd("ticks", 2);
  registry.CounterAdd("other", 5);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  const uint64_t* ticks = snapshot.FindCounter("ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(*ticks, 3u);
  const uint64_t* other = snapshot.FindCounter("other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(*other, 5u);
  EXPECT_EQ(snapshot.FindCounter("missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugeKeepsLatestValue) {
  MetricsRegistry registry;
  registry.GaugeSet("level", 1.0);
  registry.GaugeSet("level", 2.5);
  registry.GaugeSet("level", -0.5);

  MetricsSnapshot snapshot = registry.Snapshot();
  const double* level = snapshot.FindGauge("level");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(*level, -0.5);
}

TEST(MetricsRegistryTest, GaugeMergeKeepsLatestSetAcrossThreads) {
  // Two threads write the same gauge; the snapshot must keep the write with
  // the globally latest sequence number, regardless of shard order.
  MetricsRegistry registry;
  registry.GaugeSet("g", 1.0);
  std::thread other([&registry] { registry.GaugeSet("g", 2.0); });
  other.join();
  // This Set happens after the other thread's (join = happens-before), so it
  // must win the merge even though both shards carry a value.
  registry.GaugeSet("g", 3.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  const double* g = snapshot.FindGauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(*g, 3.0);
}

TEST(MetricsRegistryTest, HistogramBucketsCountAndSum) {
  MetricsRegistry registry;
  std::vector<double> bounds{1.0, 10.0, 100.0};
  registry.HistogramObserve("h", 0.5, bounds);
  registry.HistogramObserve("h", 5.0, bounds);
  registry.HistogramObserve("h", 50.0, bounds);
  registry.HistogramObserve("h", 500.0, bounds);  // Overflow bucket.

  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramValue* h = snapshot.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->sum, 555.5);
  ASSERT_EQ(h->counts.size(), 4u);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_EQ(h->counts[2], 1u);
  EXPECT_EQ(h->counts[3], 1u);
  EXPECT_DOUBLE_EQ(h->mean(), 555.5 / 4.0);
  // p50 lies in the (1, 10] bucket, interpolated.
  EXPECT_GT(h->Quantile(0.5), 1.0);
  EXPECT_LE(h->Quantile(0.5), 10.0);
}

TEST(MetricsRegistryTest, ShardedCountersMergeDeterministically) {
  // N threads each add to the same counters from their own shard; the merged
  // snapshot must see the exact totals, every time.
  for (int round = 0; round < 3; ++round) {
    MetricsRegistry registry;
    std::vector<std::thread> threads;
    constexpr int kThreads = 4;
    constexpr int kAdds = 1000;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&registry] {
        for (int i = 0; i < kAdds; ++i) {
          registry.CounterAdd("shared", 1);
          registry.HistogramObserve("lat", 2.0);
        }
      });
    }
    for (auto& t : threads) t.join();

    MetricsSnapshot snapshot = registry.Snapshot();
    const uint64_t* shared = snapshot.FindCounter("shared");
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(*shared, static_cast<uint64_t>(kThreads * kAdds));
    const HistogramValue* lat = snapshot.FindHistogram("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, static_cast<uint64_t>(kThreads * kAdds));
  }
}

TEST(MetricsRegistryTest, SpanProfileAggregates) {
  MetricsRegistry registry;
  registry.SpanRecord("tick", 1000.0);
  registry.SpanRecord("tick", 2000.0);
  registry.SpanRecord("tick", 4000.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  const SpanStats* tick = snapshot.FindSpan("tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->count, 3u);
  EXPECT_DOUBLE_EQ(tick->total_ns, 7000.0);
  EXPECT_DOUBLE_EQ(tick->min_ns, 1000.0);
  EXPECT_DOUBLE_EQ(tick->max_ns, 4000.0);
  EXPECT_GE(tick->p50_ns(), tick->min_ns);
  EXPECT_LE(tick->p99_ns(), tick->max_ns);
  EXPECT_LE(tick->p50_ns(), tick->p99_ns());
}

TEST(MetricsRegistryTest, ScopedSpanRecordsIntoCurrentRegistry) {
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  {
    AMPERE_SPAN("scoped.work");
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  const SpanStats* span = snapshot.FindSpan("scoped.work");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  EXPECT_GT(span->max_ns, 0.0);
}

TEST(MetricsRegistryTest, ScopedRegistryIsolatesWrites) {
  MetricsRegistry outer;
  MetricsRegistry inner;
  ScopedMetricsRegistry outer_scope(&outer);
  CounterAdd("c", 1);
  {
    ScopedMetricsRegistry inner_scope(&inner);
    CounterAdd("c", 10);
  }
  CounterAdd("c", 2);

  const MetricsSnapshot outer_snapshot = outer.Snapshot();
  const uint64_t* outer_c = outer_snapshot.FindCounter("c");
  ASSERT_NE(outer_c, nullptr);
  EXPECT_EQ(*outer_c, 3u);
  const MetricsSnapshot inner_snapshot = inner.Snapshot();
  const uint64_t* inner_c = inner_snapshot.FindCounter("c");
  ASSERT_NE(inner_c, nullptr);
  EXPECT_EQ(*inner_c, 10u);
}

TEST(MetricsRegistryTest, SnapshotMergeFoldsParts) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.CounterAdd("c", 1);
  b.CounterAdd("c", 2);
  b.CounterAdd("only_b", 7);
  a.GaugeSet("g", 1.0);
  b.GaugeSet("g", 2.0);  // Later Set -> higher global sequence -> wins.
  a.HistogramObserve("h", 1.0);
  b.HistogramObserve("h", 2.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(*merged.FindCounter("c"), 3u);
  EXPECT_EQ(*merged.FindCounter("only_b"), 7u);
  EXPECT_DOUBLE_EQ(*merged.FindGauge("g"), 2.0);
  EXPECT_EQ(merged.FindHistogram("h")->count, 2u);
}

TEST(MetricsRegistryTest, PrometheusTextAndJsonExposition) {
  MetricsRegistry registry;
  registry.CounterAdd("controller.ticks", 3);
  registry.GaugeSet("fleet.queue_length", 4.0);
  registry.HistogramObserve("sample.watts", 2.0, std::vector<double>{1.0, 5.0});
  registry.SpanRecord("controller.tick", 1500.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  std::string prom = snapshot.ToPrometheusText();
  EXPECT_NE(prom.find("ampere_controller_ticks 3"), std::string::npos);
  EXPECT_NE(prom.find("ampere_fleet_queue_length 4"), std::string::npos);
  EXPECT_NE(prom.find("ampere_sample_watts_bucket{le=\"5\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("ampere_sample_watts_count 1"), std::string::npos);
  EXPECT_NE(prom.find("ampere_controller_tick_seconds{quantile=\"0.99\"}"),
            std::string::npos);

  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"controller.ticks\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fleet.queue_length\":4"), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

// --- Snapshot isolation through the harness ------------------------------

// Each run body writes run-specific metric values through the process-global
// instrumentation entry points. With per-run registries installed by the
// runner (--obs), a run's obs snapshot must contain exactly its own writes,
// whether runs execute serially (jobs=1) or concurrently (jobs=4).
TEST(MetricsHarnessTest, PerRunSnapshotsAreIsolatedAcrossJobs) {
  auto make_scenarios = [](std::vector<harness::Scenario>& scenarios) {
    for (uint64_t i = 0; i < 8; ++i) {
      harness::Scenario s;
      s.name = "run" + std::to_string(i);
      s.seed = i;
      s.body = [i](harness::RunContext& context) {
        CounterAdd("run.writes", i + 1);
        GaugeSet("run.id", static_cast<double>(i));
        context.Metric("id", static_cast<double>(i));
      };
      scenarios.push_back(std::move(s));
    }
  };

  harness::RunnerOptions serial;
  serial.jobs = 1;
  serial.capture_obs = true;
  harness::RunnerOptions parallel;
  parallel.jobs = 4;
  parallel.capture_obs = true;

  std::vector<harness::Scenario> scenarios_serial;
  std::vector<harness::Scenario> scenarios_parallel;
  make_scenarios(scenarios_serial);
  make_scenarios(scenarios_parallel);

  harness::ResultTable t1 = harness::RunScenarios(scenarios_serial, serial);
  harness::ResultTable t4 =
      harness::RunScenarios(scenarios_parallel, parallel);

  EXPECT_TRUE(harness::ResultTable::SameData(t1, t4));
  for (size_t i = 0; i < t1.size(); ++i) {
    // Snapshot JSON records exactly this run's writes — identical between
    // jobs=1 and jobs=4, with the run-specific values inside.
    EXPECT_EQ(t1.row(i).obs_json, t4.row(i).obs_json);
    std::string expected_counter =
        "\"run.writes\":" + std::to_string(i + 1);
    EXPECT_NE(t1.row(i).obs_json.find(expected_counter), std::string::npos)
        << t1.row(i).obs_json;
  }
}

// --- Exposition edge cases -----------------------------------------------

TEST(MetricsExpositionTest, PrometheusNamesEscapeNonAlphanumerics) {
  // Domain-prefixed and dotted names carry '/', '.', and '-' — all illegal
  // in a Prometheus metric name and sanitized to '_'. JSON keeps the raw
  // (escaped) name.
  MetricsRegistry registry;
  registry.CounterAdd("dc0/controller.ticks", 2);
  registry.GaugeSet("weird name\"with\\quote", 1.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  std::string prom = snapshot.ToPrometheusText();
  EXPECT_NE(prom.find("ampere_dc0_controller_ticks 2"), std::string::npos);
  EXPECT_EQ(prom.find("dc0/controller"), std::string::npos);
  EXPECT_NE(prom.find("ampere_weird_name_with_quote 1"), std::string::npos);

  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"dc0/controller.ticks\":2"), std::string::npos);
  EXPECT_NE(json.find("\\\"with\\\\quote"), std::string::npos);
}

TEST(MetricsExpositionTest, EmptyRegistrySnapshotExposesCleanly) {
  MetricsRegistry registry;
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.empty());
  // Both formats still produce well-formed output with zero metrics.
  EXPECT_EQ(snapshot.ToPrometheusText(), "");
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{}"), std::string::npos);
}

TEST(MetricsExpositionTest, HistogramOverflowAndUnderflowBuckets) {
  MetricsRegistry registry;
  std::vector<double> bounds{12.5, 99.5};
  registry.HistogramObserve("h", -5.0, bounds);     // Below every bound.
  registry.HistogramObserve("h", 12.5, bounds);     // On the boundary (<=).
  registry.HistogramObserve("h", 1e18, bounds);     // +Inf bucket.

  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramValue* h = snapshot.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 2u);  // -5 and the boundary 12.5 both land here.
  EXPECT_EQ(h->counts[1], 0u);
  EXPECT_EQ(h->counts[2], 1u);  // The implicit +Inf overflow bucket.

  std::string prom = snapshot.ToPrometheusText();
  // Cumulative le buckets: 2 at le=12.5, 2 at le=99.5, all 3 at +Inf; the
  // +Inf bucket always equals _count.
  EXPECT_NE(prom.find("ampere_h_bucket{le=\"12.5\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("ampere_h_bucket{le=\"99.5\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("ampere_h_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("ampere_h_count 3"), std::string::npos);
}

TEST(MetricsExpositionTest, DisjointShardKeySetsMergeToTheUnion) {
  // Two threads write non-overlapping key sets into their own shards; the
  // merged snapshot is the union, name-sorted, with no cross-talk.
  MetricsRegistry registry;
  registry.CounterAdd("main.only", 1);
  registry.HistogramObserve("main.hist", 1.0);
  std::thread other([&registry] {
    registry.CounterAdd("thread.only", 7);
    registry.GaugeSet("thread.gauge", 3.5);
  });
  other.join();

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(*snapshot.FindCounter("main.only"), 1u);
  EXPECT_EQ(*snapshot.FindCounter("thread.only"), 7u);
  EXPECT_DOUBLE_EQ(*snapshot.FindGauge("thread.gauge"), 3.5);
  EXPECT_EQ(snapshot.FindHistogram("main.hist")->count, 1u);
  // Name-sorted exposition regardless of which shard held which key.
  EXPECT_LT(snapshot.counters[0].name, snapshot.counters[1].name);
}

// --- Domain scoping -------------------------------------------------------

TEST(MetricsDomainTest, ScopedDomainPrefixesInstrumentation) {
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  const DomainId dc1 = InternDomain("dc1/");
  AMPERE_COUNTER_ADD("controller.ticks", 1);  // Root domain: bare name.
  {
    ScopedMetricsDomain domain(dc1);
    AMPERE_COUNTER_ADD("controller.ticks", 1);  // Same site, rebinds.
    AMPERE_GAUGE_SET("queue", 4.0);
    AMPERE_HISTOGRAM_OBSERVE("watts", 2.0);
  }
  AMPERE_COUNTER_ADD("controller.ticks", 1);  // Back to root.

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("controller.ticks"), 2u);
  EXPECT_EQ(*snapshot.FindCounter("dc1/controller.ticks"), 1u);
  EXPECT_DOUBLE_EQ(*snapshot.FindGauge("dc1/queue"), 4.0);
  EXPECT_EQ(snapshot.FindHistogram("dc1/watts")->count, 1u);
  EXPECT_EQ(snapshot.FindGauge("queue"), nullptr);
}

TEST(MetricsDomainTest, CounterSiteKeepsOneBindingPerDomain) {
  // A campus alternates DCs at one site on nearly every event. Each domain
  // keeps its own cached cell, so after one bind per domain the site never
  // takes the locked lookup again, and each prefixed counter holds exactly
  // its own count.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  // Freshly interned, so consecutive ids and distinct table slots.
  const DomainId a = InternDomain("site_alternation_a/");
  const DomainId b = InternDomain("site_alternation_b/");
  ASSERT_EQ(b, a + 1);
  CounterSite site("sched.placements");
  for (int i = 0; i < 1000; ++i) {
    ScopedMetricsDomain domain(i % 2 == 0 ? a : b);
    site.Add(i % 2 == 0 ? 1 : 3);
  }
  EXPECT_EQ(site.rebinds(), 2u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.FindCounter("site_alternation_a/sched.placements"),
            nullptr);
  EXPECT_EQ(*snapshot.FindCounter("site_alternation_a/sched.placements"),
            500u);
  ASSERT_NE(snapshot.FindCounter("site_alternation_b/sched.placements"),
            nullptr);
  EXPECT_EQ(*snapshot.FindCounter("site_alternation_b/sched.placements"),
            1500u);
  EXPECT_EQ(snapshot.FindCounter("sched.placements"), nullptr);

  // A Reset() invalidates every binding: one rebind per domain again.
  registry.Reset();
  for (int i = 0; i < 10; ++i) {
    ScopedMetricsDomain domain(i % 2 == 0 ? a : b);
    site.Add(1);
  }
  EXPECT_EQ(site.rebinds(), 4u);
  const MetricsSnapshot after_reset = registry.Snapshot();
  const uint64_t* a_count =
      after_reset.FindCounter("site_alternation_a/sched.placements");
  ASSERT_NE(a_count, nullptr);
  EXPECT_EQ(*a_count, 5u);
}

TEST(MetricsDomainTest, InternDomainIsIdempotentAndRootIsUnprefixed) {
  EXPECT_EQ(InternDomain(""), 0u);
  EXPECT_EQ(DomainPrefix(0), "");
  const DomainId a = InternDomain("dcX/");
  const DomainId b = InternDomain("dcX/");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(DomainPrefix(a), "dcX/");
  // The macro with domain 0 writes bare names.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  {
    AMPERE_METRICS_DOMAIN(0);
    AMPERE_COUNTER_ADD("root.counter", 1);
  }
  EXPECT_NE(registry.Snapshot().FindCounter("root.counter"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace ampere
