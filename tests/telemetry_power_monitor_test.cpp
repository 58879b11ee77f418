#include "src/telemetry/power_monitor.h"

#include <gtest/gtest.h>
#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"

namespace ampere {
namespace {

TopologyConfig SmallTopology() {
  TopologyConfig config;
  config.num_rows = 2;
  config.racks_per_row = 1;
  config.servers_per_rack = 4;
  return config;
}

PowerMonitorConfig NoiselessConfig() {
  PowerMonitorConfig config;
  config.noise_sigma_watts = 0.0;
  config.quantize_to_watts = false;
  return config;
}

TEST(PowerMonitorTest, SamplesEveryMinute) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  monitor.Start(SimTime::Minutes(1));
  sim.RunUntil(SimTime::Minutes(10.5));
  EXPECT_EQ(monitor.samples_taken(), 10u);
  EXPECT_EQ(db.Series(PowerMonitor::RowSeries(RowId(0))).size(), 10u);
  EXPECT_EQ(db.Series(PowerMonitor::kTotalSeries).size(), 10u);
}

TEST(PowerMonitorTest, NoiselessReadingsMatchTruth) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  dc.PlaceTask(ServerId(0), TaskSpec{JobId(1), Resources{8.0, 8.0},
                                     SimTime::Hours(2)});
  monitor.SampleOnce(SimTime::Minutes(1));
  EXPECT_NEAR(monitor.LatestServerWatts(ServerId(0)),
              dc.server_power_watts(ServerId(0)), 1e-9);
  EXPECT_NEAR(monitor.LatestRowWatts(RowId(0)),
              dc.row_power_watts(RowId(0)), 1e-9);
}

TEST(PowerMonitorTest, QuantizationRoundsToWholeWatts) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config;
  config.noise_sigma_watts = 0.0;
  config.quantize_to_watts = true;
  PowerMonitor monitor(&dc, &db, config, Rng(1));
  monitor.SampleOnce(SimTime::Minutes(1));
  double reading = monitor.LatestServerWatts(ServerId(0));
  EXPECT_DOUBLE_EQ(reading, std::round(reading));
}

TEST(PowerMonitorTest, NoiseAveragesOut) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config;
  config.noise_sigma_watts = 3.0;
  config.quantize_to_watts = false;
  PowerMonitor monitor(&dc, &db, config, Rng(7));
  double truth = dc.server_power_watts(ServerId(0));
  double sum = 0.0;
  const int n = 2000;
  for (int i = 1; i <= n; ++i) {
    monitor.SampleOnce(SimTime::Minutes(i));
    sum += monitor.LatestServerWatts(ServerId(0));
  }
  EXPECT_NEAR(sum / n, truth, 0.3);
}

TEST(PowerMonitorTest, GroupAggregation) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  monitor.RegisterGroup("evens", {ServerId(0), ServerId(2), ServerId(4),
                                  ServerId(6)});
  monitor.SampleOnce(SimTime::Minutes(1));
  double expected = 4 * dc.server_power_watts(ServerId(0));
  EXPECT_NEAR(monitor.LatestGroupWatts("evens"), expected, 1e-9);
  EXPECT_EQ(db.Series(PowerMonitor::GroupSeries("evens")).size(), 1u);
}

TEST(PowerMonitorTest, UnknownGroupThrows) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  EXPECT_THROW(monitor.LatestGroupWatts("nope"), CheckFailure);
}

TEST(PowerMonitorTest, RegisterGroupAfterStartThrows) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  monitor.Start(SimTime::Minutes(1));
  EXPECT_THROW(monitor.RegisterGroup("late", {ServerId(0)}), CheckFailure);
}

TEST(PowerMonitorTest, PerServerSeriesOptIn) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config = NoiselessConfig();
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(1));
  monitor.SampleOnce(SimTime::Minutes(1));
  EXPECT_EQ(db.Series(PowerMonitor::ServerSeries(ServerId(3))).size(), 1u);
}

TEST(PowerMonitorTest, RackSeriesSumToRowSeries) {
  Simulation sim;
  TopologyConfig topo = SmallTopology();
  topo.racks_per_row = 2;
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  dc.PlaceTask(ServerId(1), TaskSpec{JobId(1), Resources{8.0, 8.0},
                                     SimTime::Hours(1)});
  monitor.SampleOnce(SimTime::Minutes(1));
  double rack_sum =
      db.Latest(PowerMonitor::RackSeries(RackId(0)))->value +
      db.Latest(PowerMonitor::RackSeries(RackId(1)))->value;
  double row = db.Latest(PowerMonitor::RowSeries(RowId(0)))->value;
  EXPECT_NEAR(rack_sum, row, 1e-9);
}

TEST(PowerMonitorTest, SeriesPrefixNamespacesEverything) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config = NoiselessConfig();
  config.series_prefix = "campus/dc7/";
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(1));
  monitor.RegisterGroup("evens", {ServerId(0), ServerId(2)});
  monitor.SampleOnce(SimTime::Minutes(1));
  EXPECT_EQ(db.Series("campus/dc7/" + PowerMonitor::RowSeries(RowId(0))).size(),
            1u);
  EXPECT_EQ(
      db.Series("campus/dc7/" + PowerMonitor::ServerSeries(ServerId(3))).size(),
      1u);
  EXPECT_EQ(
      db.Series("campus/dc7/" + PowerMonitor::GroupSeries("evens")).size(), 1u);
  EXPECT_EQ(db.Series(std::string("campus/dc7/") + PowerMonitor::kTotalSeries)
                .size(),
            1u);
  // Nothing escapes the namespace — two prefixed monitors can share one db.
  for (const std::string& name : db.SeriesNames()) {
    EXPECT_EQ(name.rfind("campus/dc7/", 0), 0u) << name;
  }
  // In-memory accessors are prefix-agnostic; readings still match truth.
  EXPECT_NEAR(monitor.LatestRowWatts(RowId(0)), dc.row_power_watts(RowId(0)),
              1e-9);
}

// --- Degraded-path behavior with a fault injector attached ---

// Hand-written plans via the serialization format: exact windows on exact
// channels, no Poisson sampling in the way.
faults::FaultPlan PlanFromText(const std::string& text) {
  auto plan = faults::FaultPlan::Parse("faultplan v1\n" + text);
  AMPERE_CHECK(plan.has_value());
  return *plan;
}

// Many hash buckets so the two rows of SmallTopology land on distinct
// channels (verified by the tests that rely on it).
constexpr uint32_t kManyChannels = 257;

std::string ChannelLine(uint32_t channel, SimTime begin, SimTime end) {
  return "blackout_channels=" + std::to_string(kManyChannels) + "\nblackout " +
         std::to_string(begin.micros()) + ' ' + std::to_string(end.micros()) +
         ' ' + std::to_string(channel) + '\n';
}

TEST(PowerMonitorFaultTest, StalledPassLeavesEverythingAged) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  // Pipeline stalled during [2 min, 3 min).
  faults::FaultInjector injector(PlanFromText(
      "stale " + std::to_string(SimTime::Minutes(2).micros()) + ' ' +
      std::to_string(SimTime::Minutes(3).micros()) + '\n'));
  monitor.AttachFaultInjector(&injector);

  monitor.SampleOnce(SimTime::Minutes(1));
  EXPECT_EQ(monitor.samples_taken(), 1u);
  monitor.SampleOnce(SimTime::Minutes(2));  // Stalled: nothing lands.
  EXPECT_EQ(monitor.samples_taken(), 1u);
  EXPECT_EQ(monitor.samples_stalled(), 1u);
  EXPECT_EQ(monitor.LatestSampleTime(), SimTime::Minutes(1));
  EXPECT_EQ(db.Series(PowerMonitor::kTotalSeries).size(), 1u);
  monitor.SampleOnce(SimTime::Minutes(3));  // Window is half-open: lands.
  EXPECT_EQ(monitor.samples_taken(), 2u);
  EXPECT_EQ(injector.counts().telemetry_stalls, 1u);
}

TEST(PowerMonitorFaultTest, RowBlackoutFreezesReadingAndStamp) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  const uint32_t row0 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(0)), kManyChannels);
  const uint32_t row1 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(1)), kManyChannels);
  ASSERT_NE(row0, row1);
  // Row 0's feed dark during [2 min, 5 min).
  faults::FaultInjector injector(PlanFromText(
      ChannelLine(row0, SimTime::Minutes(2), SimTime::Minutes(5))));
  monitor.AttachFaultInjector(&injector);

  monitor.SampleOnce(SimTime::Minutes(1));
  const double row0_baseline = monitor.LatestRowWatts(RowId(0));
  const double server0_baseline = monitor.LatestServerWatts(ServerId(0));

  // Load lands on both rows; only row 1's feed sees it.
  dc.PlaceTask(ServerId(0), TaskSpec{JobId(1), Resources{8.0, 8.0},
                                     SimTime::Hours(2)});
  dc.PlaceTask(ServerId(4), TaskSpec{JobId(2), Resources{8.0, 8.0},
                                     SimTime::Hours(2)});
  monitor.SampleOnce(SimTime::Minutes(2));

  PowerReading dark = monitor.LatestRowReading(RowId(0), SimTime::Minutes(2));
  EXPECT_TRUE(dark.blacked_out);
  EXPECT_EQ(dark.stamp, SimTime::Minutes(1));  // Not refreshed.
  EXPECT_DOUBLE_EQ(dark.watts, row0_baseline);
  EXPECT_EQ(dark.Age(SimTime::Minutes(2)), SimTime::Minutes(1));
  // Per-server readings under the dark feed are not refreshed either.
  EXPECT_DOUBLE_EQ(monitor.LatestServerWatts(ServerId(0)), server0_baseline);

  PowerReading lit = monitor.LatestRowReading(RowId(1), SimTime::Minutes(2));
  EXPECT_FALSE(lit.blacked_out);
  EXPECT_EQ(lit.stamp, SimTime::Minutes(2));
  EXPECT_GT(lit.watts, row0_baseline);

  EXPECT_EQ(db.Series(PowerMonitor::RowSeries(RowId(0))).size(), 1u);
  EXPECT_EQ(db.Series(PowerMonitor::RowSeries(RowId(1))).size(), 2u);

  // Window over: the feed recovers and catches up.
  monitor.SampleOnce(SimTime::Minutes(5));
  PowerReading recovered =
      monitor.LatestRowReading(RowId(0), SimTime::Minutes(5));
  EXPECT_FALSE(recovered.blacked_out);
  EXPECT_EQ(recovered.stamp, SimTime::Minutes(5));
  EXPECT_GT(recovered.watts, row0_baseline);
}

TEST(PowerMonitorFaultTest, GroupReadingSurfacesMemberRowBlackout) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  const uint32_t row0 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(0)), kManyChannels);
  // A group name whose own channel is NOT the blacked-out one, so any
  // blackout flag must come from the member-row check.
  std::string group;
  for (int i = 0; i < 64 && group.empty(); ++i) {
    std::string name = "span" + std::to_string(i);
    if (faults::FaultPlan::ChannelIndex(PowerMonitor::GroupSeries(name),
                                        kManyChannels) != row0) {
      group = name;
    }
  }
  ASSERT_FALSE(group.empty());
  monitor.RegisterGroup(group, {ServerId(0), ServerId(4)});  // Spans rows 0+1.
  faults::FaultInjector injector(PlanFromText(
      ChannelLine(row0, SimTime::Minutes(2), SimTime::Minutes(5))));
  monitor.AttachFaultInjector(&injector);

  monitor.SampleOnce(SimTime::Minutes(1));
  EXPECT_FALSE(
      monitor.LatestGroupReading(group, SimTime::Minutes(1)).blacked_out);
  // Inside the member row's window the group sum would silently mix stale
  // per-server values — surfaced as blacked_out so consumers skip.
  monitor.SampleOnce(SimTime::Minutes(2));
  EXPECT_TRUE(
      monitor.LatestGroupReading(group, SimTime::Minutes(2)).blacked_out);
  monitor.SampleOnce(SimTime::Minutes(5));
  EXPECT_FALSE(
      monitor.LatestGroupReading(group, SimTime::Minutes(5)).blacked_out);
}

TEST(PowerMonitorFaultTest, DropoutKeepsLastKnownServerValue) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, NoiselessConfig(), Rng(1));
  faults::FaultInjector injector(PlanFromText("sample_dropout_prob=1\n"));
  monitor.AttachFaultInjector(&injector);

  // Every reading drops: the pipeline keeps the initial (zero) values even
  // though the servers idle well above zero watts.
  monitor.SampleOnce(SimTime::Minutes(1));
  EXPECT_DOUBLE_EQ(monitor.LatestServerWatts(ServerId(0)), 0.0);
  EXPECT_DOUBLE_EQ(monitor.LatestRowWatts(RowId(0)), 0.0);
  EXPECT_EQ(injector.counts().dropped_samples,
            static_cast<uint64_t>(dc.num_servers()));
  // Row feeds themselves were up, so stamps did refresh (LVCF semantics).
  EXPECT_EQ(monitor.LatestRowReading(RowId(0), SimTime::Minutes(1)).stamp,
            SimTime::Minutes(1));

  // Detach: the next pass reads truth again.
  monitor.AttachFaultInjector(nullptr);
  monitor.SampleOnce(SimTime::Minutes(2));
  EXPECT_NEAR(monitor.LatestServerWatts(ServerId(0)),
              dc.server_power_watts(ServerId(0)), 1e-9);
}

TEST(PowerMonitorFaultTest, QuiescentInjectorIsBitIdenticalToNoInjector) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db_a, db_b;
  PowerMonitorConfig config;
  config.noise_sigma_watts = 3.0;  // Noise on: stream alignment matters.
  config.quantize_to_watts = false;
  PowerMonitor with(&dc, &db_a, config, Rng(9));
  PowerMonitor without(&dc, &db_b, config, Rng(9));
  faults::FaultPlanConfig zero;  // any() == false.
  faults::FaultPlan plan = faults::FaultPlan::Generate(zero, SimTime::Hours(1));
  faults::FaultInjector injector(plan);
  with.AttachFaultInjector(&injector);

  for (int m = 1; m <= 5; ++m) {
    with.SampleOnce(SimTime::Minutes(m));
    without.SampleOnce(SimTime::Minutes(m));
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      ASSERT_EQ(with.LatestServerWatts(ServerId(s)),
                without.LatestServerWatts(ServerId(s)));
    }
    ASSERT_EQ(with.LatestRowWatts(RowId(0)), without.LatestRowWatts(RowId(0)));
  }
  EXPECT_EQ(injector.counts(), faults::FaultCounts{});
}

TEST(PowerMonitorFaultTest, QuiescentPassTakesTheCleanPath) {
  // An attached injector whose faults all lie outside the sampled window is
  // quiescent on every tick, so the monitor takes the clean pass: its
  // readings stay bit-identical to an injector-free monitor's.
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db_a, db_b;
  PowerMonitorConfig config;
  config.noise_sigma_watts = 3.0;
  config.quantize_to_watts = false;
  PowerMonitor with(&dc, &db_a, config, Rng(9));
  PowerMonitor without(&dc, &db_b, config, Rng(9));
  // Faults exist in the plan but only outside the sampled window.
  const uint32_t row0 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(0)), kManyChannels);
  faults::FaultInjector injector(PlanFromText(
      ChannelLine(row0, SimTime::Hours(2), SimTime::Hours(3))));
  with.AttachFaultInjector(&injector);

  for (int m = 1; m <= 5; ++m) {
    with.SampleOnce(SimTime::Minutes(m));
    without.SampleOnce(SimTime::Minutes(m));
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      ASSERT_EQ(with.LatestServerWatts(ServerId(s)),
                without.LatestServerWatts(ServerId(s)));
    }
  }
  EXPECT_EQ(injector.counts(), faults::FaultCounts{});

  // Once the blackout window opens, the same monitor degrades again: the
  // quiescence check is per-tick, not per-attach.
  with.SampleOnce(SimTime::Hours(2));
  EXPECT_TRUE(with.LatestRowReading(RowId(0), SimTime::Hours(2)).blacked_out);
}

TEST(PowerMonitorFaultTest, PowerReadingValidityAndAge) {
  PowerReading never;
  EXPECT_FALSE(never.valid());
  EXPECT_EQ(never.Age(SimTime::Hours(5)), SimTime::Max());
  PowerReading fresh;
  fresh.stamp = SimTime::Minutes(3);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(fresh.Age(SimTime::Minutes(5)), SimTime::Minutes(2));
}

}  // namespace
}  // namespace ampere
