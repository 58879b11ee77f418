// FaultPlan + FaultInjector: determinism, window composition, serialization
// round-trip, stream independence, and the quiescent fast paths the <5%
// overhead budget depends on.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/faults/presets.h"

namespace ampere {
namespace faults {
namespace {

FaultPlanConfig BusyConfig(uint64_t seed) {
  FaultPlanConfig config;
  config.seed = seed;
  config.sample_dropout_prob = 0.05;
  config.noise_spike_prob = 0.01;
  config.noise_spike_sigma_watts = 15.0;
  config.sensor_bias_watts = 1.0;
  config.stale_windows_per_hour = 0.5;
  config.stale_window_mean = SimTime::Minutes(3);
  config.blackouts_per_hour = 0.25;
  config.blackout_mean = SimTime::Minutes(8);
  config.blackout_channels = 4;
  config.rpc_failure_prob = 0.02;
  return config;
}

// --- FaultPlan generation ---

TEST(FaultPlanTest, GenerateIsAPureFunctionOfConfigAndHorizon) {
  FaultPlanConfig config = BusyConfig(7);
  FaultPlan a = FaultPlan::Generate(config, SimTime::Hours(26));
  FaultPlan b = FaultPlan::Generate(config, SimTime::Hours(26));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.stale_windows().empty());
  EXPECT_FALSE(a.blackout_windows().empty());
}

TEST(FaultPlanTest, DifferentSeedsDifferentSchedules) {
  FaultPlan a = FaultPlan::Generate(BusyConfig(7), SimTime::Hours(26));
  FaultPlan b = FaultPlan::Generate(BusyConfig(8), SimTime::Hours(26));
  EXPECT_NE(a.stale_windows(), b.stale_windows());
}

TEST(FaultPlanTest, WindowsStayInsideHorizonAndChannelRange) {
  const SimTime horizon = SimTime::Hours(26);
  FaultPlan plan = FaultPlan::Generate(BusyConfig(3), horizon);
  for (const FaultWindow& w : plan.stale_windows()) {
    EXPECT_LT(w.begin, w.end);
    EXPECT_LE(w.end, horizon);
    EXPECT_EQ(w.channel, kAllChannels);
  }
  for (const FaultWindow& w : plan.blackout_windows()) {
    EXPECT_LT(w.begin, w.end);
    EXPECT_LE(w.end, horizon);
    EXPECT_LT(w.channel, 4u);
  }
}

TEST(FaultPlanTest, ZeroRatesGenerateNoWindows) {
  FaultPlanConfig config;
  config.sample_dropout_prob = 0.1;  // Per-event only; no window rates.
  FaultPlan plan = FaultPlan::Generate(config, SimTime::Hours(26));
  EXPECT_TRUE(plan.stale_windows().empty());
  EXPECT_TRUE(plan.blackout_windows().empty());
  EXPECT_FALSE(plan.InStaleWindow(SimTime::Hours(1)));
}

TEST(FaultPlanTest, EnablingBlackoutsNeverShiftsTheStaleSchedule) {
  FaultPlanConfig stale_only = BusyConfig(11);
  stale_only.blackouts_per_hour = 0.0;
  FaultPlanConfig both = BusyConfig(11);
  FaultPlan a = FaultPlan::Generate(stale_only, SimTime::Hours(26));
  FaultPlan b = FaultPlan::Generate(both, SimTime::Hours(26));
  EXPECT_EQ(a.stale_windows(), b.stale_windows());  // Forked streams.
  EXPECT_TRUE(a.blackout_windows().empty());
  EXPECT_FALSE(b.blackout_windows().empty());
}

TEST(FaultPlanTest, NormalizeCoalescesOverlappingWindowsPerChannel) {
  std::vector<FaultWindow> raw = {
      {SimTime::Minutes(10), SimTime::Minutes(20), 1},
      {SimTime::Minutes(15), SimTime::Minutes(30), 1},
      {SimTime::Minutes(30), SimTime::Minutes(35), 1},  // Touching: merge.
      {SimTime::Minutes(15), SimTime::Minutes(30), 2},  // Other channel.
      {SimTime::Minutes(5), SimTime::Minutes(5), 1},    // Empty: dropped.
  };
  std::vector<FaultWindow> got = FaultPlan::Normalize(std::move(raw));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0],
            (FaultWindow{SimTime::Minutes(10), SimTime::Minutes(35), 1}));
  EXPECT_EQ(got[1],
            (FaultWindow{SimTime::Minutes(15), SimTime::Minutes(30), 2}));
}

TEST(FaultPlanTest, InStaleWindowMatchesHalfOpenSchedule) {
  FaultPlan plan = FaultPlan::Generate(BusyConfig(5), SimTime::Hours(26));
  ASSERT_FALSE(plan.stale_windows().empty());
  const FaultWindow& w = plan.stale_windows().front();
  EXPECT_TRUE(plan.InStaleWindow(w.begin));
  EXPECT_FALSE(plan.InStaleWindow(w.end));  // Half-open.
  EXPECT_FALSE(plan.InStaleWindow(w.begin - SimTime::Seconds(1)));
}

TEST(FaultPlanTest, ChannelIndexIsStableFnv1a) {
  // Pinned values: the hash must never change across platforms or releases,
  // or serialized plans would replay against different channels.
  EXPECT_EQ(FaultPlan::ChannelIndex("row0", 0xffffffffu),
            0x6d381d11u % 0xffffffffu);
  EXPECT_EQ(FaultPlan::ChannelIndex("row0", 4), 0x6d381d11u % 4);
  EXPECT_LT(FaultPlan::ChannelIndex("experiment", 4), 4u);
  EXPECT_EQ(FaultPlan::ChannelIndex("anything", 0), 0u);
}

// --- Serialization ---

TEST(FaultPlanTest, SerializeParseRoundTripIsLossless) {
  FaultPlan plan = FaultPlan::Generate(BusyConfig(42), SimTime::Hours(26));
  std::string text = plan.Serialize();
  std::optional<FaultPlan> parsed = FaultPlan::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, plan);
  // And the round trip is a fixed point of serialization.
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(FaultPlanTest, RoundTripPreservesEveryPreset) {
  for (const std::string& name : PresetNames()) {
    auto config = PresetByName(name);
    ASSERT_TRUE(config.has_value()) << name;
    FaultPlan plan = FaultPlan::Generate(*config, SimTime::Hours(26));
    std::optional<FaultPlan> parsed = FaultPlan::Parse(plan.Serialize());
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, plan) << name;
  }
}

TEST(FaultPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::Parse("").has_value());
  EXPECT_FALSE(FaultPlan::Parse("not a plan\n").has_value());
  EXPECT_FALSE(FaultPlan::Parse("faultplan v1\nbogus_key=1\n").has_value());
  EXPECT_FALSE(FaultPlan::Parse("faultplan v1\nseed=abc\n").has_value());
  EXPECT_FALSE(FaultPlan::Parse("faultplan v1\nstale 100\n").has_value());
}

// --- Presets ---

TEST(PresetsTest, KnownNamesResolveUnknownDont) {
  EXPECT_TRUE(PresetByName("none").has_value());
  EXPECT_FALSE(PresetByName("none")->any());
  ASSERT_TRUE(PresetByName("moderate").has_value());
  // The acceptance regime: >= 5% dropout, >= 1% RPC failure.
  EXPECT_GE(PresetByName("moderate")->sample_dropout_prob, 0.05);
  EXPECT_GE(PresetByName("moderate")->rpc_failure_prob, 0.01);
  EXPECT_FALSE(PresetByName("bogus").has_value());
  EXPECT_EQ(PresetNames().size(), 4u);
}

// --- FaultInjector ---

TEST(FaultInjectorTest, SameSeedSameDrawSequence) {
  FaultPlan plan = FaultPlan::Generate(BusyConfig(9), SimTime::Hours(26));
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.DropServerSample(), b.DropServerSample());
    EXPECT_EQ(a.SensorAdjustWatts(), b.SensorAdjustWatts());
    RpcAttempt ra = a.DrawRpcAttempt();
    RpcAttempt rb = b.DrawRpcAttempt();
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.latency, rb.latency);
  }
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_GT(a.counts().dropped_samples, 0u);
  EXPECT_GT(a.counts().rpc_attempts, 0u);
}

TEST(FaultInjectorTest, CategoriesDrawFromIndependentStreams) {
  // The dropout sequence must be identical whether or not noise spikes are
  // enabled: each category forks its own stream from the plan seed.
  FaultPlanConfig with_noise = BusyConfig(13);
  FaultPlanConfig no_noise = BusyConfig(13);
  no_noise.noise_spike_prob = 0.0;
  FaultInjector a(FaultPlan::Generate(with_noise, SimTime::Hours(1)));
  FaultInjector b(FaultPlan::Generate(no_noise, SimTime::Hours(1)));
  for (int i = 0; i < 5000; ++i) {
    a.SensorAdjustWatts();  // Advances only a's noise stream.
    EXPECT_EQ(a.DropServerSample(), b.DropServerSample());
  }
}

TEST(FaultInjectorTest, QuiescentDimensionsAreFreeAndCountNothing) {
  FaultPlanConfig config;  // any() == false.
  config.rpc_latency_mean = SimTime();
  FaultInjector injector(FaultPlan::Generate(config, SimTime::Hours(1)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.DropServerSample());
    EXPECT_DOUBLE_EQ(injector.SensorAdjustWatts(), 0.0);
    EXPECT_FALSE(injector.TelemetryStalled(SimTime::Minutes(i)));
    RpcAttempt attempt = injector.DrawRpcAttempt();
    EXPECT_TRUE(attempt.ok);
    EXPECT_EQ(attempt.latency, SimTime());
  }
  EXPECT_EQ(injector.counts(), FaultCounts{});
}

TEST(FaultInjectorTest, DropoutRateTracksProbability) {
  FaultPlanConfig config;
  config.seed = 21;
  config.sample_dropout_prob = 0.05;
  FaultInjector injector(FaultPlan::Generate(config, SimTime::Hours(1)));
  const int n = 20000;
  for (int i = 0; i < n; ++i) injector.DropServerSample();
  double rate = static_cast<double>(injector.counts().dropped_samples) / n;
  EXPECT_NEAR(rate, 0.05, 0.01);
}

TEST(FaultInjectorTest, BiasAppliesWithoutSpikes) {
  FaultPlanConfig config;
  config.sensor_bias_watts = 2.5;
  FaultInjector injector(FaultPlan::Generate(config, SimTime::Hours(1)));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(injector.SensorAdjustWatts(), 2.5);
  }
  EXPECT_EQ(injector.counts().noise_spikes, 0u);
}

TEST(FaultInjectorTest, StallAndBlackoutLookupsCountEvents) {
  FaultPlan plan = FaultPlan::Generate(BusyConfig(17), SimTime::Hours(26));
  ASSERT_FALSE(plan.stale_windows().empty());
  ASSERT_FALSE(plan.blackout_windows().empty());
  FaultInjector injector(plan);
  const FaultWindow& stall = plan.stale_windows().front();
  EXPECT_TRUE(injector.TelemetryStalled(stall.begin));
  EXPECT_FALSE(injector.TelemetryStalled(stall.end));
  EXPECT_EQ(injector.counts().telemetry_stalls, 1u);

  // Find a name that hashes onto a blacked-out channel.
  const FaultWindow& dark = plan.blackout_windows().front();
  std::string victim;
  for (int i = 0; i < 64 && victim.empty(); ++i) {
    std::string name = "row" + std::to_string(i);
    if (FaultPlan::ChannelIndex(name, plan.config().blackout_channels) ==
        dark.channel) {
      victim = name;
    }
  }
  ASSERT_FALSE(victim.empty());
  EXPECT_TRUE(injector.ChannelBlackedOut(victim, dark.begin));
  EXPECT_FALSE(injector.ChannelBlackedOut(victim, dark.end));
  EXPECT_EQ(injector.counts().blackout_reads, 1u);
}

TEST(FaultInjectorTest, RpcFailureCertainWhenProbabilityIsOne) {
  FaultPlanConfig config;
  config.rpc_failure_prob = 1.0;
  config.rpc_latency_mean = SimTime::Millis(5);
  FaultInjector injector(FaultPlan::Generate(config, SimTime::Hours(1)));
  for (int i = 0; i < 50; ++i) {
    RpcAttempt attempt = injector.DrawRpcAttempt();
    EXPECT_FALSE(attempt.ok);
    EXPECT_GE(attempt.latency, SimTime());
  }
  EXPECT_EQ(injector.counts().rpc_attempts, 50u);
  EXPECT_EQ(injector.counts().rpc_failures, 50u);
}

}  // namespace
}  // namespace faults
}  // namespace ampere
