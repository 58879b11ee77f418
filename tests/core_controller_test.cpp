#include "src/core/controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace ampere {
namespace {

// Fixture: one 8-server row, noiseless monitor, controller over all servers.
struct ControllerFixture {
  Simulation sim;
  DataCenter dc;
  TimeSeriesDb db;
  Scheduler scheduler;
  PowerMonitor monitor;

  static TopologyConfig Topology() {
    TopologyConfig config;
    config.num_rows = 1;
    config.racks_per_row = 1;
    config.servers_per_rack = 8;
    config.server_capacity = Resources{16.0, 64.0};
    return config;
  }
  static PowerMonitorConfig MonitorConfig() {
    PowerMonitorConfig config;
    config.noise_sigma_watts = 0.0;
    config.quantize_to_watts = false;
    return config;
  }

  ControllerFixture()
      : dc(Topology(), &sim), scheduler(&dc, SchedulerConfig{}, Rng(3)),
        monitor(&dc, &db, MonitorConfig(), Rng(4)) {
    std::vector<ServerId> all;
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      all.push_back(ServerId(s));
    }
    monitor.RegisterGroup("row", all);
  }

  std::vector<ServerId> AllServers() const {
    std::vector<ServerId> all;
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      all.push_back(ServerId(s));
    }
    return all;
  }

  AmpereControllerConfig Config(double kr, double et) const {
    AmpereControllerConfig config;
    config.effect = FreezeEffectModel(kr);
    config.et = EtEstimator::Constant(et);
    return config;
  }

  // Loads server `s` with `cores` of long-running work.
  void Load(int32_t s, double cores) {
    dc.PlaceTask(ServerId(s), TaskSpec{JobId(1000 + s),
                                       Resources{cores, cores},
                                       SimTime::Hours(100)});
  }

  size_t FrozenCount() const {
    size_t n = 0;
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      if (dc.server(ServerId(s)).frozen()) {
        ++n;
      }
    }
    return n;
  }
};

TEST(ControllerTest, NoActionBelowThreshold) {
  ControllerFixture f;
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  // Budget = full rated power: idle cluster is far below threshold.
  controller.AddDomain(
      {"row", f.AllServers(), 8 * 250.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  EXPECT_EQ(f.FrozenCount(), 0u);
  EXPECT_DOUBLE_EQ(controller.freeze_ratio(0), 0.0);
}

TEST(ControllerTest, FreezesWhenPowerExceedsThreshold) {
  ControllerFixture f;
  // Load all servers to 50 % -> power = 8 * (162.5 + 43.75) = 1650 W.
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 8.0);
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  // Budget 1600 W: normalized power 1.031, over the 0.98 threshold.
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  // u = min((1.031 + 0.02 - 1)/0.05, 0.5) = 0.5 -> floor(0.5*8) = 4 frozen.
  EXPECT_EQ(f.FrozenCount(), 4u);
  EXPECT_DOUBLE_EQ(controller.freeze_ratio(0), 0.5);
  EXPECT_EQ(controller.freeze_ops(), 4u);
}

TEST(ControllerTest, FreezesHighestPowerServersFirst) {
  ControllerFixture f;
  // Distinct loads: servers 0..7 get increasing utilization.
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 2.0 * s);
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  double power = f.dc.row_power_watts(RowId(0));
  // Choose a budget so that u lands at ~0.25 -> 2 servers.
  controller.AddDomain({"row", f.AllServers(), power / 1.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  // Normalized power == 1.0 > threshold 0.98; u = (1.0+0.02-1)/0.05 = 0.4
  // -> floor(3.2) = 3 frozen, and they must be the three hottest (7, 6, 5).
  EXPECT_EQ(f.FrozenCount(), 3u);
  EXPECT_TRUE(f.dc.server(ServerId(7)).frozen());
  EXPECT_TRUE(f.dc.server(ServerId(6)).frozen());
  EXPECT_TRUE(f.dc.server(ServerId(5)).frozen());
}

TEST(ControllerTest, ReleasesAllWhenBackUnderThreshold) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.dc.PlaceTask(ServerId(s), TaskSpec{JobId(2000 + s),
                                         Resources{8.0, 8.0},
                                         SimTime::Minutes(10)});
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  ASSERT_GT(f.FrozenCount(), 0u);
  // All tasks complete at 10 min; power returns to idle.
  f.sim.RunUntil(SimTime::Minutes(11));
  f.monitor.SampleOnce(SimTime::Minutes(11));
  controller.Tick(SimTime::Minutes(11));
  EXPECT_EQ(f.FrozenCount(), 0u);
  EXPECT_GT(controller.unfreeze_ops(), 0u);
}

TEST(ControllerTest, HysteresisKeepsFrozenSetStable) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 8.0);
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  uint64_t ops_after_first = controller.freeze_ops() +
                             controller.unfreeze_ops();
  // Re-tick with identical power: no churn at all.
  for (int m = 2; m <= 5; ++m) {
    f.monitor.SampleOnce(SimTime::Minutes(m));
    controller.Tick(SimTime::Minutes(m));
  }
  EXPECT_EQ(controller.freeze_ops() + controller.unfreeze_ops(),
            ops_after_first);
}

TEST(ControllerTest, StatelessRebuildMatchesSchedulerFlags) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 8.0);
  }
  AmpereController first(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  first.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  first.Tick(SimTime::Minutes(1));
  size_t frozen_before = f.FrozenCount();
  ASSERT_GT(frozen_before, 0u);

  // "Failover": a replacement controller rebuilds state from the scheduler.
  AmpereController replacement(&f.scheduler, &f.monitor,
                               f.Config(0.05, 0.02));
  replacement.AddDomain({"row", f.AllServers(), 1600.0});
  EXPECT_EQ(replacement.frozen_count(0), 0u);
  replacement.RebuildStateFromScheduler();
  EXPECT_EQ(replacement.frozen_count(0), frozen_before);
  // And it continues controlling without churn.
  f.monitor.SampleOnce(SimTime::Minutes(2));
  replacement.Tick(SimTime::Minutes(2));
  EXPECT_EQ(f.FrozenCount(), frozen_before);
}

TEST(ControllerTest, MaxFreezeRatioCapsControl) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 16.0);  // Full blast: power = 2000 W.
  }
  AmpereControllerConfig config = f.Config(0.01, 0.02);  // Tiny kr.
  config.max_freeze_ratio = 0.25;
  AmpereController controller(&f.scheduler, &f.monitor, config);
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  EXPECT_EQ(f.FrozenCount(), 2u);  // floor(0.25 * 8).
}

TEST(ControllerTest, PeriodicStartTicksOnSchedule) {
  ControllerFixture f;
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 2000.0});
  f.monitor.Start(SimTime::Minutes(1));
  controller.Start(&f.sim, SimTime::Minutes(1) + SimTime::Seconds(1));
  f.sim.RunUntil(SimTime::Minutes(5.5));
  EXPECT_EQ(controller.ticks(), 5u);
}

TEST(ControllerTest, MultipleDomainsControlledIndependently) {
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = 2;
  topo.racks_per_row = 1;
  topo.servers_per_rack = 4;
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, Rng(5));
  PowerMonitorConfig mc;
  mc.noise_sigma_watts = 0.0;
  mc.quantize_to_watts = false;
  PowerMonitor monitor(&dc, &db, mc, Rng(6));
  std::vector<ServerId> row0{ServerId(0), ServerId(1), ServerId(2),
                             ServerId(3)};
  std::vector<ServerId> row1{ServerId(4), ServerId(5), ServerId(6),
                             ServerId(7)};
  monitor.RegisterGroup("row0", row0);
  monitor.RegisterGroup("row1", row1);
  // Row 0 hot, row 1 idle.
  for (int32_t s = 0; s < 4; ++s) {
    dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{16.0, 16.0},
                                       SimTime::Hours(10)});
  }
  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.05);
  config.et = EtEstimator::Constant(0.02);
  AmpereController controller(&scheduler, &monitor, config);
  controller.AddDomain({"row0", row0, 900.0});
  controller.AddDomain({"row1", row1, 900.0});
  monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  EXPECT_GT(controller.frozen_count(0), 0u);
  EXPECT_EQ(controller.frozen_count(1), 0u);
}

// --- Graceful degradation under faulty telemetry / fallible RPCs ---

TEST(ControllerDegradedTest, StaleReadingWidensEtAndStillActs) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 8.0);  // Power = 1650 W.
  }
  // Budget 1750 -> p = 0.943. Fresh threshold 1 - 0.03 = 0.97: no action.
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.03));
  controller.AddDomain({"row", f.AllServers(), 1750.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  EXPECT_EQ(f.FrozenCount(), 0u);
  EXPECT_EQ(controller.degraded_ticks(), 0u);

  // No new sample before the tick at minute 5: the reading is 4 minutes old
  // (stale, not yet blackout). E_t widens 4x to 0.12, threshold drops to
  // 0.88 < 0.943, u = (0.943 + 0.12 - 1)/0.05 = 1.26 -> capped at 0.5.
  controller.Tick(SimTime::Minutes(5));
  EXPECT_EQ(f.FrozenCount(), 4u);
  EXPECT_EQ(controller.stale_fallbacks(), 1u);
  EXPECT_EQ(controller.degraded_ticks(), 1u);
  EXPECT_EQ(controller.blackout_skips(), 0u);

  // The journal records the degraded tick with its age and widened margin.
  auto records = controller.journal().Query(
      SimTime::Minutes(5), SimTime::Minutes(5) + SimTime::Seconds(1));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].degraded, obs::DegradedMode::kStaleFallback);
  EXPECT_EQ(records[0].reading_age_us, SimTime::Minutes(4).micros());
  EXPECT_DOUBLE_EQ(records[0].et_effective, 0.12);
}

TEST(ControllerDegradedTest, BlackoutSkipHoldsFrozenSet) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 16.0);  // Full blast.
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  const size_t frozen = f.FrozenCount();
  ASSERT_GT(frozen, 0u);
  const uint64_t ops =
      controller.freeze_ops() + controller.unfreeze_ops();

  // Reading is 9 minutes old at the next tick — beyond blackout_after. The
  // controller holds the frozen set rather than act on garbage.
  controller.Tick(SimTime::Minutes(10));
  EXPECT_EQ(f.FrozenCount(), frozen);
  EXPECT_EQ(controller.freeze_ops() + controller.unfreeze_ops(), ops);
  EXPECT_EQ(controller.blackout_skips(), 1u);
  auto records = controller.journal().Query(
      SimTime::Minutes(10), SimTime::Minutes(10) + SimTime::Seconds(1));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].degraded, obs::DegradedMode::kBlackoutSkip);
}

TEST(ControllerDegradedTest, NeverSampledDomainSkipsInsteadOfGuessing) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 16.0);
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  // Tick with no sample ever taken: the group's stamp is the never-sampled
  // sentinel, so the tick must skip, not freeze off a zero reading.
  controller.Tick(SimTime::Minutes(1));
  EXPECT_EQ(f.FrozenCount(), 0u);
  EXPECT_EQ(controller.blackout_skips(), 1u);
  EXPECT_EQ(controller.freeze_ops(), 0u);
}

TEST(ControllerDegradedTest, FreezeRpcGiveUpLeavesConsistentBookkeeping) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 16.0);
  }
  faults::FaultPlanConfig chaos;
  chaos.rpc_failure_prob = 1.0;  // Every attempt fails; retries exhaust.
  faults::FaultInjector injector(
      faults::FaultPlan::Generate(chaos, SimTime::Hours(1)));
  f.scheduler.AttachFaultInjector(&injector);

  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));

  // Nothing froze, and the cache agrees with the scheduler's flags.
  EXPECT_EQ(f.FrozenCount(), 0u);
  EXPECT_EQ(controller.frozen_count(0), 0u);
  EXPECT_EQ(controller.freeze_ops(), 0u);
  EXPECT_GT(controller.rpc_giveups(), 0u);
  EXPECT_GT(controller.rpc_failures(), 0u);
  // With prob 1, every attempt drawn fails and retries ran to exhaustion.
  EXPECT_EQ(injector.counts().rpc_attempts, injector.counts().rpc_failures);
  EXPECT_EQ(injector.counts().rpc_attempts % 3, 0u);  // rpc_max_attempts = 3.
  // The adversity is journaled on the tick's record.
  auto records = controller.journal().Query(
      SimTime::Minutes(1), SimTime::Minutes(1) + SimTime::Seconds(1));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].rpc_giveups, 0u);
}

TEST(ControllerDegradedTest, UnfreezeRpcFailureKeepsServerInFrozenSet) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.dc.PlaceTask(ServerId(s), TaskSpec{JobId(3000 + s),
                                         Resources{16.0, 16.0},
                                         SimTime::Minutes(10)});
  }
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.AddDomain({"row", f.AllServers(), 1600.0});
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  const size_t frozen = f.FrozenCount();
  ASSERT_GT(frozen, 0u);

  // Load drains; unfreezes are due — but every RPC now fails.
  faults::FaultPlanConfig chaos;
  chaos.rpc_failure_prob = 1.0;
  faults::FaultInjector injector(
      faults::FaultPlan::Generate(chaos, SimTime::Hours(1)));
  f.scheduler.AttachFaultInjector(&injector);
  f.sim.RunUntil(SimTime::Minutes(11));
  f.monitor.SampleOnce(SimTime::Minutes(11));
  controller.Tick(SimTime::Minutes(11));

  // Failed unfreezes keep the servers frozen AND in the cached set — the
  // bookkeeping must track reality, not intent.
  EXPECT_EQ(f.FrozenCount(), frozen);
  EXPECT_EQ(controller.frozen_count(0), frozen);
  EXPECT_EQ(controller.unfreeze_ops(), 0u);
  EXPECT_GT(controller.rpc_giveups(), 0u);

  // RPCs recover: the next tick retries and drains the frozen set.
  f.scheduler.AttachFaultInjector(nullptr);
  f.monitor.SampleOnce(SimTime::Minutes(12));
  controller.Tick(SimTime::Minutes(12));
  EXPECT_EQ(f.FrozenCount(), 0u);
  EXPECT_EQ(controller.frozen_count(0), 0u);
}

// A controller scoped under its own domain over a scheduler in another (the
// fleet_observatory shape: one controller per row over the fleet's one
// scheduler). Each write is filed under the domain of the component that
// makes it: the scheduler's RPC retry counters under the scheduler's
// prefix even while the controller's tick drives them, and the
// controller's RPC accounting and freeze-RPC events under its own.
TEST(ControllerObsDomainTest, RpcFaultsLandUnderEachComponentsOwnDomain) {
  ControllerFixture f;
  for (int32_t s = 0; s < 8; ++s) {
    f.Load(s, 16.0);
  }
  faults::FaultPlanConfig chaos;
  chaos.rpc_failure_prob = 1.0;
  faults::FaultInjector injector(
      faults::FaultPlan::Generate(chaos, SimTime::Hours(1)));
  f.scheduler.AttachFaultInjector(&injector);
  const obs::DomainId sched_domain = obs::InternDomain("fleet_sched/");
  const obs::DomainId row_domain = obs::InternDomain("row_ctl/");
  f.scheduler.SetObsDomain(sched_domain);
  AmpereController controller(&f.scheduler, &f.monitor, f.Config(0.05, 0.02));
  controller.SetObsDomain(row_domain);
  controller.AddDomain({"row", f.AllServers(), 1600.0});

  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  obs::FlightRecorder recorder(1024);
  obs::ScopedFlightRecorder recording(&recorder);
  f.monitor.SampleOnce(SimTime::Minutes(1));
  controller.Tick(SimTime::Minutes(1));
  ASSERT_GT(controller.rpc_failures(), 0u);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const uint64_t* failed =
      snapshot.FindCounter("fleet_sched/faults.rpc_failed_attempts");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(*failed, injector.counts().rpc_failures);
  EXPECT_EQ(snapshot.FindCounter("row_ctl/faults.rpc_failed_attempts"),
            nullptr);
  const uint64_t* controller_failures =
      snapshot.FindCounter("row_ctl/faults.controller_rpc_failures");
  ASSERT_NE(controller_failures, nullptr);
  EXPECT_EQ(*controller_failures, controller.rpc_failures());
  EXPECT_EQ(
      snapshot.FindCounter("fleet_sched/faults.controller_rpc_failures"),
      nullptr);

  size_t freeze_rpcs = 0;
  recorder.ForEach([&](const obs::TimelineEvent& event) {
    if (event.type == obs::TimelineEventType::kFreezeRpc) {
      ++freeze_rpcs;
      EXPECT_EQ(event.domain, row_domain);
    }
  });
  EXPECT_GT(freeze_rpcs, 0u);
}

}  // namespace
}  // namespace ampere
