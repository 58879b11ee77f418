// MetricsRegistry semantics: counter/gauge behavior, the single-writer
// contract (per-thread default registries, owner-thread checks), span
// aggregation, exposition formats, domain-prefixed writes, and snapshot
// isolation between concurrent harness runs (jobs=1 must equal jobs=4).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
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

TEST(MetricsRegistryTest, DefaultRegistryIsPerThread) {
  // Threads that install no registry each write their own Default(), which
  // holds exactly that thread's writes.
  std::vector<uint64_t> counted(4, 0);
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < counted.size(); ++t) {
    threads.emplace_back([t, &counted] {
      for (int i = 0; i < 1000; ++i) CounterAdd(0, "per_thread.writes", t + 1);
      const MetricsSnapshot mine = MetricsRegistry::Default().Snapshot();
      const uint64_t* writes = mine.FindCounter("per_thread.writes");
      counted[t] = writes != nullptr ? *writes : 0;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counted, (std::vector<uint64_t>{1000, 2000, 3000, 4000}));
}

TEST(MetricsRegistryTest, RegistryRefusesUseOffItsOwnerThread) {
  // A registry has one writer, the thread that built it: installing or
  // snapshotting it on any other thread is a CHECK failure.
  MetricsRegistry registry;
  std::thread other([&registry] {
    EXPECT_THROW(registry.Snapshot(), CheckFailure);
    EXPECT_THROW({ ScopedMetricsRegistry scope(&registry); }, CheckFailure);
  });
  other.join();
  EXPECT_TRUE(registry.Snapshot().empty());
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
    AMPERE_SPAN(0, "scoped.work");
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
  CounterAdd(0, "c", 1);
  {
    ScopedMetricsRegistry inner_scope(&inner);
    CounterAdd(0, "c", 10);
  }
  CounterAdd(0, "c", 2);

  const MetricsSnapshot outer_snapshot = outer.Snapshot();
  const uint64_t* outer_c = outer_snapshot.FindCounter("c");
  ASSERT_NE(outer_c, nullptr);
  EXPECT_EQ(*outer_c, 3u);
  const MetricsSnapshot inner_snapshot = inner.Snapshot();
  const uint64_t* inner_c = inner_snapshot.FindCounter("c");
  ASSERT_NE(inner_c, nullptr);
  EXPECT_EQ(*inner_c, 10u);
}

TEST(MetricsRegistryTest, PrometheusTextAndJsonExposition) {
  MetricsRegistry registry;
  registry.CounterAdd("controller.ticks", 3);
  registry.GaugeSet("fleet.queue_length", 4.0);
  registry.SpanRecord("controller.tick", 1500.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  std::string prom = snapshot.ToPrometheusText();
  EXPECT_NE(prom.find("ampere_controller_ticks 3"), std::string::npos);
  EXPECT_NE(prom.find("ampere_fleet_queue_length 4"), std::string::npos);
  EXPECT_NE(prom.find("ampere_controller_tick_seconds{quantile=\"0.99\"}"),
            std::string::npos);

  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"controller.ticks\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fleet.queue_length\":4"), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  // Three kinds, in a fixed order.
  EXPECT_EQ(json.find("{\"counters\":{"), 0u);
  EXPECT_NE(json.find("},\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("},\"spans\":{"), std::string::npos);
}

// --- Snapshot isolation through the harness ------------------------------

// Each run body writes run-specific metric values through the process-global
// instrumentation entry points. The runner gives every run its own registry,
// so a run's obs snapshot holds exactly its own writes, whether runs execute
// serially (jobs=1) or concurrently (jobs=4); without --obs it is not
// emitted.
TEST(MetricsHarnessTest, PerRunSnapshotsAreIsolatedAcrossJobs) {
  std::vector<harness::Scenario> scenarios;
  for (uint64_t i = 0; i < 8; ++i) {
    harness::Scenario s;
    s.name = "run" + std::to_string(i);
    s.seed = i;
    s.body = [i](harness::RunContext& context) {
      CounterAdd(0, "run.writes", i + 1);
      GaugeSet(0, "run.id", static_cast<double>(i));
      context.Metric("id", static_cast<double>(i));
    };
    scenarios.push_back(std::move(s));
  }
  harness::RunnerOptions options;
  options.capture_obs = true;
  options.jobs = 1;
  const harness::ResultTable t1 = harness::RunScenarios(scenarios, options);
  options.jobs = 4;
  const harness::ResultTable t4 = harness::RunScenarios(scenarios, options);
  options.capture_obs = false;
  const harness::ResultTable quiet = harness::RunScenarios(scenarios, options);

  EXPECT_TRUE(harness::ResultTable::SameData(t1, t4));
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1.row(i).obs_json, t4.row(i).obs_json);
    const std::string writes = "\"run.writes\":" + std::to_string(i + 1);
    EXPECT_NE(t1.row(i).obs_json.find(writes), std::string::npos)
        << t1.row(i).obs_json;
    EXPECT_TRUE(quiet.row(i).obs_json.empty());
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

TEST(MetricsExpositionTest, SnapshotSortsEveryKindByName) {
  // Names written in reverse order come out name-sorted in every kind, so
  // both exposition formats are deterministic whatever the write order.
  MetricsRegistry registry;
  for (const char* name : {"z", "m", "a"}) {
    registry.CounterAdd(name, 1);
    registry.GaugeSet(name, 1.0);
    registry.SpanRecord(name, 10.0);
  }
  auto names = [](const auto& items) {
    std::vector<std::string> out;
    for (const auto& item : items) out.push_back(item.name);
    return out;
  };
  const std::vector<std::string> sorted{"a", "m", "z"};
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(names(snapshot.counters), sorted);
  EXPECT_EQ(names(snapshot.gauges), sorted);
  EXPECT_EQ(names(snapshot.spans), sorted);
}

// --- Domain scoping -------------------------------------------------------

TEST(MetricsDomainTest, ScopedDomainPrefixesInstrumentation) {
  // Each write is filed under the domain it names, whatever the previous
  // write used: alternating domains never leak a prefix.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  const DomainId dc1 = InternDomain("dc1/");
  const DomainId dc2 = InternDomain("dc2/");
  for (int i = 0; i < 10; ++i) {
    CounterAdd(0, "controller.ticks");  // Root domain: bare name.
    CounterAdd(dc1, "controller.ticks");
    CounterAdd(dc2, "controller.ticks", 3);
  }
  GaugeSet(dc1, "queue", 4.0);
  SpanRecord(dc2, "controller.tick", 100.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("controller.ticks"), 10u);
  EXPECT_EQ(*snapshot.FindCounter("dc1/controller.ticks"), 10u);
  EXPECT_EQ(*snapshot.FindCounter("dc2/controller.ticks"), 30u);
  EXPECT_DOUBLE_EQ(*snapshot.FindGauge("dc1/queue"), 4.0);
  EXPECT_EQ(snapshot.FindGauge("queue"), nullptr);
  ASSERT_NE(snapshot.FindSpan("dc2/controller.tick"), nullptr);
  EXPECT_EQ(snapshot.FindSpan("dc2/controller.tick")->count, 1u);
}

TEST(MetricsDomainTest, InternDomainIsIdempotentAndRootIsUnprefixed) {
  EXPECT_EQ(InternDomain(""), 0u);
  EXPECT_EQ(DomainPrefix(0), "");
  const DomainId a = InternDomain("dcX/");
  const DomainId b = InternDomain("dcX/");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(DomainPrefix(a), "dcX/");
  // A write under domain 0 uses the bare name.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  CounterAdd(0, "root.counter");
  EXPECT_NE(registry.Snapshot().FindCounter("root.counter"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace ampere
