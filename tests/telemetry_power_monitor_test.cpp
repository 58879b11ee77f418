#include "src/telemetry/power_monitor.h"

#include <gtest/gtest.h>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <vector>

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

std::vector<double> ValuesOf(const TimeSeriesDb& db, const std::string& name) {
  std::vector<double> values;
  db.SeriesStitched(name).ForEachPoint(
      [&values](const TimePoint& p) { values.push_back(p.value); });
  return values;
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
  EXPECT_EQ(db.SeriesStitched(PowerMonitor::RowSeries(RowId(0))).size(), 10u);
  EXPECT_EQ(db.SeriesStitched(PowerMonitor::kTotalSeries).size(), 10u);
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

// The whole-watt reading rule, written out independently of the monitor:
// round half away from zero, then clamp negatives (a -0.0 is not negative).
double ExactWholeWatts(double reading) {
  reading = std::round(reading);
  return reading < 0.0 ? 0.0 : reading;
}

// Noise lane of `server` for the exact counter-based pair at (base, tick).
double ExactNoise(uint64_t base, size_t server) {
  const counter_rng::NormalPair pair = counter_rng::StandardNormalPair(
      counter_rng::StreamKey(base, static_cast<uint64_t>(server / 2)));
  return server % 2 == 0 ? pair.z0 : pair.z1;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Quantized clean passes read every server through the certified kernel;
// each reading must equal the exact rule applied to truth + NoiseAt bit for
// bit. 21 servers (an odd count: the last one is a half pair's z0 lane),
// 300 ticks, every sign and scale of sigma the kernel must handle.
TEST(PowerMonitorTest, CleanWholeWattReadingsAreTheExactReadings) {
  TopologyConfig topology;
  topology.num_rows = 3;
  topology.racks_per_row = 1;
  topology.servers_per_rack = 7;
  for (const double sigma : {0.0, 0.25, 1.0, 50.0, -1.0}) {
    SCOPED_TRACE(sigma);
    Simulation sim;
    DataCenter dc(topology, &sim);
    ASSERT_EQ(dc.num_servers() % 2, 1);
    for (int32_t s = 0; s < dc.num_servers(); s += 3) {
      dc.PlaceTask(ServerId(s),
                   TaskSpec{JobId(s + 1), Resources{1.0 + s % 5, 2.0},
                            SimTime::Hours(10)});
    }
    TimeSeriesDb db;
    PowerMonitorConfig config;
    config.noise_sigma_watts = sigma;
    config.quantize_to_watts = true;
    PowerMonitor monitor(&dc, &db, config, Rng(31));
    // The noise seed is the monitor's one draw from its Rng.
    const uint64_t noise_seed = Rng(31).NextU64();
    for (uint64_t tick = 0; tick < 300; ++tick) {
      monitor.SampleOnce(SimTime::Minutes(static_cast<double>(tick + 1)));
      const uint64_t base = counter_rng::TickBase(noise_seed, tick);
      for (int32_t s = 0; s < dc.num_servers(); ++s) {
        const double expected = ExactWholeWatts(
            dc.server_power_watts(ServerId(s)) +
            sigma * ExactNoise(base, static_cast<size_t>(s)));
        ASSERT_EQ(Bits(monitor.LatestServerWatts(ServerId(s))),
                  Bits(expected))
            << "server " << s << " tick " << tick;
      }
    }
  }
}

// Truths placed so that truth + sigma * z_exact lands within 1e-12 of a
// half-integer, or inside (-0.5, 0.5) where the clamp and the sign of zero
// decide: the approximate noise cannot decide these readings, so the
// kernel must fall back, and every -0.0 must come out as -0.0.
TEST(PowerMonitorTest, CertifiedReadingsFallBackAtEveryRoundingEdge) {
  const std::vector<double> offsets = {-1e-12, -3e-13, 0.0, 3e-13, 1e-12};
  const std::vector<double> near_zero = {
      -0.5 - 1e-12, -0.5 + 1e-12, -0.49, -0.3, -1e-12, -0.0,
      0.0,          1e-12,        0.3,   0.49, 0.5 - 1e-12, 0.5 + 1e-12};
  for (const double sigma : {0.0, 0.25, 1.0, 50.0, -1.0}) {
    SCOPED_TRACE(sigma);
    for (uint64_t tick = 0; tick < 20; ++tick) {
      const uint64_t base = counter_rng::TickBase(0xADu, tick);
      std::vector<double> targets;
      for (int k = 1; k <= 40; ++k) {
        for (const double offset : offsets) {
          targets.push_back(80.0 + 7.0 * k + 0.5 + offset);
        }
      }
      targets.insert(targets.end(), near_zero.begin(), near_zero.end());
      targets.push_back(301.0);  // Far from every edge: certified.
      std::vector<double> truth(targets.size());
      for (size_t s = 0; s < truth.size(); ++s) {
        truth[s] = targets[s] - sigma * ExactNoise(base, s);
      }
      std::vector<double> readings(truth.size(), -1.0);
      const size_t fallbacks =
          PowerMonitor::ReadWholeWatts(truth, sigma, base, readings);
      size_t negative_zeros = 0;
      for (size_t s = 0; s < truth.size(); ++s) {
        const double expected =
            ExactWholeWatts(truth[s] + sigma * ExactNoise(base, s));
        ASSERT_EQ(Bits(readings[s]), Bits(expected))
            << "target " << targets[s] << " reading " << readings[s]
            << " expected " << expected << " tick " << tick;
        if (expected == 0.0 && std::signbit(expected)) {
          ++negative_zeros;
        }
      }
      // With noise, every edge target falls back; only the far one may be
      // certified. Without, x is exact and only the zero band and exact
      // half-integers (but 0.5 + 1e-12) are undecided.
      EXPECT_GE(fallbacks, sigma != 0.0 ? truth.size() - 1
                                        : near_zero.size() - 1);
      EXPECT_GT(negative_zeros, 0u);
    }
  }
}

// With a sigma so small that its share of the margin is far below one ulp
// of the reading, truth + sigma * z can still round to the doubles on either
// side of a half-integer for the approximate and the exact z. The ulp term
// of the margin must send that reading to the exact path.
TEST(PowerMonitorTest, CertifiedReadingsAllowForTheRoundingOfTheSum) {
  const uint64_t base = counter_rng::TickBase(0xADu, 3);
  const counter_rng::ApproxNormal& approx = counter_rng::ApproxNormal::Get();
  // A pair whose approximate z0 falls short of a positive exact z0.
  uint64_t stream = 0;
  double z_exact = 0.0;
  double z_approx = 0.0;
  for (;; ++stream) {
    const uint64_t key = counter_rng::StreamKey(base, stream);
    z_exact = counter_rng::StandardNormalPair(key).z0;
    z_approx = approx.Pair(key).z0;
    if (z_exact > 0.5 && z_approx < z_exact) {
      break;
    }
  }
  // truth is one ulp below 300.5, and sigma * z_exact rounds to half an ulp
  // while sigma * z_approx rounds below it: the exact sum is a tie that
  // rounds (to even) up to 300.5, the approximate one stays at truth.
  const double truth = std::nextafter(300.5, 0.0);
  const double half_ulp = (300.5 - truth) / 2.0;
  double sigma = half_ulp / z_exact;
  while (sigma * z_exact < half_ulp) {
    sigma = std::nextafter(sigma, 1.0);
  }
  ASSERT_EQ(truth + sigma * z_exact, 300.5);
  ASSERT_EQ(truth + sigma * z_approx, truth);
  const size_t server = 2 * static_cast<size_t>(stream);
  std::vector<double> truths(server + 2, 200.0);
  truths[server] = truth;
  std::vector<double> readings(truths.size(), 0.0);
  PowerMonitor::ReadWholeWatts(truths, sigma, base, readings);
  EXPECT_EQ(readings[server], 301.0);
  for (size_t s = 0; s < truths.size(); ++s) {
    EXPECT_EQ(Bits(readings[s]),
              Bits(ExactWholeWatts(truths[s] + sigma * ExactNoise(base, s))))
        << "server " << s;
  }
}

// A non-finite sigma or truth decides nothing: those readings are exact.
TEST(PowerMonitorTest, NonFiniteReadingsTakeTheExactPath) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const uint64_t base = counter_rng::TickBase(5, 9);
  for (const double sigma : {kInf, -kInf, kNaN, 1.0}) {
    const std::vector<double> truth = {150.2, kNaN, kInf, -kInf, 0x1.0p53,
                                       1e300, 149.7};
    std::vector<double> readings(truth.size(), 0.0);
    PowerMonitor::ReadWholeWatts(truth, sigma, base, readings);
    for (size_t s = 0; s < truth.size(); ++s) {
      const double expected =
          ExactWholeWatts(truth[s] + sigma * ExactNoise(base, s));
      EXPECT_EQ(Bits(readings[s]), Bits(expected))
          << "sigma " << sigma << " truth " << truth[s];
    }
  }
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
  EXPECT_EQ(db.SeriesStitched(PowerMonitor::GroupSeries("evens")).size(), 1u);
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
  EXPECT_EQ(db.SeriesStitched(PowerMonitor::ServerSeries(ServerId(3))).size(),
            1u);
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
  const std::string prefix = "campus/dc7/";
  for (const std::string& name :
       {PowerMonitor::RowSeries(RowId(0)),
        PowerMonitor::ServerSeries(ServerId(3)),
        PowerMonitor::GroupSeries("evens"),
        std::string(PowerMonitor::kTotalSeries)}) {
    EXPECT_EQ(db.SeriesStitched(prefix + name).size(), 1u) << name;
  }
  // Nothing escapes the namespace — two prefixed monitors can share one db.
  for (const std::string& name : db.SeriesNames()) {
    EXPECT_EQ(name.rfind("campus/dc7/", 0), 0u) << name;
  }
  // In-memory accessors are prefix-agnostic; readings still match truth.
  EXPECT_NEAR(monitor.LatestRowWatts(RowId(0)), dc.row_power_watts(RowId(0)),
              1e-9);
}

// Each recorded tier is its own frame with its own cell width. On the
// small topology every whole-watt reading and sum stays below 65,536, so
// every tier keeps 2 bytes per cell; unquantized noisy readings widen every
// tier to 8.
TEST(PowerMonitorTest, QuantizedTiersHoldTwoBytesPerCell) {
  for (const bool quantize : {true, false}) {
    SCOPED_TRACE(quantize ? "quantized" : "unquantized");
    Simulation sim;
    DataCenter dc(SmallTopology(), &sim);
    TimeSeriesDb db;
    PowerMonitorConfig config;
    config.noise_sigma_watts = 3.0;
    config.quantize_to_watts = quantize;
    config.record_servers = true;
    PowerMonitor monitor(&dc, &db, config, Rng(5));
    monitor.RegisterGroup("evens", {ServerId(0), ServerId(2), ServerId(4)});
    monitor.PreallocateSamples(16);
    dc.PlaceTask(ServerId(1), TaskSpec{JobId(1), Resources{3.0, 3.0},
                                       SimTime::Hours(2)});
    monitor.Start(SimTime::Minutes(1));
    sim.RunUntil(SimTime::Minutes(10.5));
    // 8 servers, 2 racks, 2 rows, the total and one group, 10 rows.
    ASSERT_EQ(db.TotalPoints(), 14u * 10u);
    EXPECT_EQ(db.HotValueBytes(), db.TotalPoints() * (quantize
                                                          ? sizeof(uint16_t)
                                                          : sizeof(double)));
  }
}

// A paper row (10 racks of 42 servers): whole-watt server readings, rack
// sums and the half-row group stay 16-bit, while the row and DC sums pass
// 65,535 W and widen to float at their first row.
TEST(PowerMonitorTest, PaperRowTiersKeepTheirOwnCellWidths) {
  Simulation sim;
  DataCenter dc(TopologyConfig{}, &sim);
  ASSERT_EQ(dc.num_servers(), 420);
  TimeSeriesDb db;
  PowerMonitorConfig config;
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(3));
  std::vector<ServerId> evens;
  for (int32_t s = 0; s < dc.num_servers(); s += 2) {
    evens.push_back(ServerId(s));
  }
  monitor.RegisterGroup("evens", evens);
  monitor.PreallocateSamples(16);
  monitor.Start(SimTime::Minutes(1));
  sim.RunUntil(SimTime::Minutes(10.5));
  ASSERT_GT(monitor.LatestRowWatts(RowId(0)), 65535.0);
  const size_t rows = 10;
  const size_t narrow_cells = 420 + 10 + 1;  // Servers, racks, the group.
  const size_t float_cells = 1 + 1;          // The row and the total.
  EXPECT_EQ(db.HotValueBytes(),
            rows * (sizeof(uint16_t) * narrow_cells +
                    sizeof(float) * float_cells));
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
  EXPECT_EQ(db.SeriesStitched(PowerMonitor::kTotalSeries).size(), 1u);
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

  EXPECT_EQ(db.SeriesStitched(PowerMonitor::RowSeries(RowId(0))).size(), 1u);
  EXPECT_EQ(db.SeriesStitched(PowerMonitor::RowSeries(RowId(1))).size(), 2u);

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

// Stamps of every point a series holds, through the stitched read.
std::vector<SimTime> StampsOf(const TimeSeriesDb& db, const std::string& name) {
  std::vector<SimTime> stamps;
  db.SeriesStitched(name).ForEachPoint(
      [&stamps](const TimePoint& p) { stamps.push_back(p.time); });
  return stamps;
}

TEST(PowerMonitorFaultTest, DroppedReadingsAreAbsentFromServerSeries) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config = NoiselessConfig();
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(1));
  faults::FaultInjector injector(PlanFromText("sample_dropout_prob=1\n"));
  monitor.AttachFaultInjector(&injector);
  monitor.SampleOnce(SimTime::Minutes(1));
  monitor.AttachFaultInjector(nullptr);
  monitor.SampleOnce(SimTime::Minutes(2));

  // Every reading of the first pass dropped: server series hold only the
  // second pass; the aggregates (last-known sums) hold both.
  const std::vector<SimTime> second{SimTime::Minutes(2)};
  const std::vector<SimTime> both{SimTime::Minutes(1), SimTime::Minutes(2)};
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    EXPECT_EQ(StampsOf(db, PowerMonitor::ServerSeries(ServerId(s))), second);
  }
  EXPECT_EQ(StampsOf(db, PowerMonitor::RackSeries(RackId(0))), both);
  EXPECT_EQ(StampsOf(db, PowerMonitor::RowSeries(RowId(0))), both);
  EXPECT_EQ(StampsOf(db, PowerMonitor::kTotalSeries), both);
  EXPECT_EQ(db.TotalPoints(), static_cast<size_t>(dc.num_servers()) +
                                  2 * (2 + 2 + 1));
}

TEST(PowerMonitorFaultTest, DarkRowAndGroupFeedsAreAbsentFromTheirSeries) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config = NoiselessConfig();
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(1));
  const uint32_t row0 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(0)), kManyChannels);
  const uint32_t row1 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(1)), kManyChannels);
  ASSERT_NE(row0, row1);
  // A group on its own channel, dark in a later window than row 0.
  std::string group;
  uint32_t group_channel = 0;
  for (int i = 0; i < 64 && group.empty(); ++i) {
    std::string name = "g";
    name += std::to_string(i);
    group_channel = faults::FaultPlan::ChannelIndex(
        PowerMonitor::GroupSeries(name), kManyChannels);
    if (group_channel != row0 && group_channel != row1) {
      group = name;
    }
  }
  ASSERT_FALSE(group.empty());
  monitor.RegisterGroup(group, {ServerId(0), ServerId(4)});
  faults::FaultInjector injector(PlanFromText(
      ChannelLine(row0, SimTime::Minutes(2), SimTime::Minutes(4)) +
      "blackout " + std::to_string(SimTime::Minutes(4).micros()) + ' ' +
      std::to_string(SimTime::Minutes(5).micros()) + ' ' +
      std::to_string(group_channel) + '\n'));
  monitor.AttachFaultInjector(&injector);
  for (int m = 1; m <= 5; ++m) {
    monitor.SampleOnce(SimTime::Minutes(m));
  }

  auto minutes = [](std::initializer_list<int> ms) {
    std::vector<SimTime> stamps;
    for (int m : ms) {
      stamps.push_back(SimTime::Minutes(m));
    }
    return stamps;
  };
  // Row 0 dark at minutes 2 and 3: its row series and its servers' series
  // miss both passes; row 1, the rack sums and the total miss nothing.
  EXPECT_EQ(StampsOf(db, PowerMonitor::RowSeries(RowId(0))),
            minutes({1, 4, 5}));
  EXPECT_EQ(StampsOf(db, PowerMonitor::ServerSeries(ServerId(0))),
            minutes({1, 4, 5}));
  EXPECT_EQ(StampsOf(db, PowerMonitor::RowSeries(RowId(1))),
            minutes({1, 2, 3, 4, 5}));
  EXPECT_EQ(StampsOf(db, PowerMonitor::ServerSeries(ServerId(4))),
            minutes({1, 2, 3, 4, 5}));
  EXPECT_EQ(StampsOf(db, PowerMonitor::RackSeries(RackId(0))),
            minutes({1, 2, 3, 4, 5}));
  EXPECT_EQ(StampsOf(db, PowerMonitor::kTotalSeries),
            minutes({1, 2, 3, 4, 5}));
  // The group's own feed dark at minute 4.
  EXPECT_EQ(StampsOf(db, PowerMonitor::GroupSeries(group)),
            minutes({1, 2, 3, 5}));
  EXPECT_EQ(db.Latest(PowerMonitor::RowSeries(RowId(0)))->time,
            SimTime::Minutes(5));
}

// A sensor bias of half a watt on unquantized whole-watt readings (idle
// servers at exactly 160 W, no noise) makes every server reading
// fractional, but each 4-server rack sum, row sum, total and 2-server
// group sum stays whole: only the server tier's frame widens, and to float
// (160.5 is exact there).
TEST(PowerMonitorFaultTest, FractionalReadingsWidenOnlyTheServerTier) {
  TopologyConfig topology = SmallTopology();
  topology.power_model.rated_watts = 256.0;
  topology.power_model.idle_fraction = 0.625;
  Simulation sim;
  DataCenter dc(topology, &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config = NoiselessConfig();
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(1));
  monitor.RegisterGroup("pair", {ServerId(0), ServerId(5)});
  monitor.PreallocateSamples(4);
  monitor.SampleOnce(SimTime::Minutes(1));
  // 8 servers + 2 racks + 2 rows + the total + the group, all 16-bit.
  EXPECT_EQ(db.HotValueBytes(), 14 * sizeof(uint16_t));
  faults::FaultInjector injector(PlanFromText("sensor_bias_watts=0.5\n"));
  monitor.AttachFaultInjector(&injector);
  monitor.SampleOnce(SimTime::Minutes(2));
  EXPECT_EQ(db.HotValueBytes(),
            2 * (8 * sizeof(float) + 6 * sizeof(uint16_t)));
  EXPECT_EQ(ValuesOf(db, PowerMonitor::ServerSeries(ServerId(3))),
            (std::vector<double>{160.0, 160.5}));
  EXPECT_EQ(ValuesOf(db, PowerMonitor::RackSeries(RackId(1))),
            (std::vector<double>{640.0, 642.0}));
  EXPECT_EQ(ValuesOf(db, PowerMonitor::GroupSeries("pair")),
            (std::vector<double>{320.0, 321.0}));
  EXPECT_EQ(ValuesOf(db, PowerMonitor::kTotalSeries),
            (std::vector<double>{1280.0, 1284.0}));
}

// Every tier's series holds exactly the points the monitor's own state
// says each pass produced: a point at the pass stamp with the refreshed
// value wherever a feed refreshed, and nothing where it was dark. Row 0 is
// dark for minutes 3-5 and the group for minute 6, so the server, row and
// group frames each carry absent cells while the rack and total frames
// carry none.
TEST(PowerMonitorFaultTest, TierFramesHoldEveryPassPointAbsentCellsIncluded) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  PowerMonitorConfig config;
  config.noise_sigma_watts = 3.0;
  config.record_servers = true;
  PowerMonitor monitor(&dc, &db, config, Rng(11));
  const uint32_t row0 = faults::FaultPlan::ChannelIndex(
      PowerMonitor::RowSeries(RowId(0)), kManyChannels);
  std::string group;
  uint32_t group_channel = 0;
  for (int i = 0; i < 64 && group.empty(); ++i) {
    std::string name = "g";
    name += std::to_string(i);
    group_channel = faults::FaultPlan::ChannelIndex(
        PowerMonitor::GroupSeries(name), kManyChannels);
    if (group_channel != row0) {
      group = name;
    }
  }
  ASSERT_FALSE(group.empty());
  monitor.RegisterGroup(group, {ServerId(1), ServerId(6)});
  faults::FaultInjector injector(PlanFromText(
      ChannelLine(row0, SimTime::Minutes(3), SimTime::Minutes(6)) +
      "blackout " + std::to_string(SimTime::Minutes(6).micros()) + ' ' +
      std::to_string(SimTime::Minutes(7).micros()) + ' ' +
      std::to_string(group_channel) + '\n'));
  monitor.AttachFaultInjector(&injector);
  dc.PlaceTask(ServerId(2), TaskSpec{JobId(1), Resources{6.0, 6.0},
                                     SimTime::Hours(2)});

  std::map<std::string, std::vector<TimePoint>> want;
  for (int m = 1; m <= 8; ++m) {
    const SimTime stamp = SimTime::Minutes(m);
    monitor.SampleOnce(stamp);
    double total = 0.0;
    for (int32_t r = 0; r < dc.num_rows(); ++r) {
      const PowerReading row = monitor.LatestRowReading(RowId(r), stamp);
      total += row.watts;
      if (row.stamp != stamp) {
        continue;  // Dark: no row point and no server points.
      }
      want[PowerMonitor::RowSeries(RowId(r))].push_back({stamp, row.watts});
      for (ServerId s : dc.servers_in_row(RowId(r))) {
        want[PowerMonitor::ServerSeries(s)].push_back(
            {stamp, monitor.LatestServerWatts(s)});
      }
    }
    want[PowerMonitor::kTotalSeries].push_back({stamp, total});
    for (int32_t k = 0; k < dc.num_racks(); ++k) {
      double sum = 0.0;
      for (ServerId s : dc.servers_in_rack(RackId(k))) {
        sum += monitor.LatestServerWatts(s);
      }
      want[PowerMonitor::RackSeries(RackId(k))].push_back({stamp, sum});
    }
    const PowerReading g = monitor.LatestGroupReading(group, stamp);
    if (g.stamp == stamp) {
      want[PowerMonitor::GroupSeries(group)].push_back({stamp, g.watts});
    }
  }
  ASSERT_EQ(want.size(), 8u + 2 + 2 + 1 + 1);
  EXPECT_EQ(want[PowerMonitor::RowSeries(RowId(0))].size(), 5u);
  EXPECT_EQ(want[PowerMonitor::GroupSeries(group)].size(), 7u);
  size_t points = 0;
  for (const auto& [name, points_want] : want) {
    const std::vector<TimePoint> got = db.SeriesStitched(name).Materialize();
    ASSERT_EQ(got.size(), points_want.size()) << name;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].time, points_want[i].time) << name << " point " << i;
      EXPECT_EQ(got[i].value, points_want[i].value) << name << " point " << i;
    }
    points += got.size();
  }
  EXPECT_EQ(db.TotalPoints(), points);
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
