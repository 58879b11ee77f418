#include "src/cluster/datacenter.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/check.h"

namespace ampere {
namespace {

TopologyConfig SmallTopology() {
  TopologyConfig config;
  config.num_rows = 2;
  config.racks_per_row = 2;
  config.servers_per_rack = 4;
  config.server_capacity = Resources{16.0, 64.0};
  config.power_model.rated_watts = 250.0;
  config.power_model.idle_fraction = 0.65;
  return config;
}

TEST(DataCenterTest, TopologyCountsAndMembership) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_EQ(dc.num_rows(), 2);
  EXPECT_EQ(dc.num_racks(), 4);
  EXPECT_EQ(dc.num_servers(), 16);
  EXPECT_EQ(dc.servers_in_row(RowId(0)).size(), 8u);
  EXPECT_EQ(dc.servers_in_rack(RackId(0)).size(), 4u);
  EXPECT_EQ(dc.racks_in_row(RowId(1)).size(), 2u);
  // Every server knows its row.
  for (ServerId id : dc.servers_in_row(RowId(1))) {
    EXPECT_EQ(dc.row_of(id), RowId(1));
  }
}

TEST(DataCenterTest, RatedProvisioningBudgets) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_DOUBLE_EQ(dc.row_budget_watts(RowId(0)), 8 * 250.0);
  EXPECT_DOUBLE_EQ(dc.rack_budget_watts(RackId(0)), 4 * 250.0);
  EXPECT_DOUBLE_EQ(dc.total_budget_watts(), 16 * 250.0);
}

TEST(DataCenterTest, InitialPowerIsIdle) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  double idle = 250.0 * 0.65;
  EXPECT_NEAR(dc.total_power_watts(), 16 * idle, 1e-9);
  EXPECT_NEAR(dc.row_power_watts(RowId(0)), 8 * idle, 1e-9);
  EXPECT_NEAR(dc.server_power_watts(ServerId(0)), idle, 1e-9);
}

TEST(DataCenterTest, PlaceTaskRaisesPowerAndUtilization) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  ServerId target(0);
  TaskSpec spec{JobId(1), Resources{8.0, 16.0}, SimTime::Minutes(5)};
  ASSERT_TRUE(dc.PlaceTask(target, spec));
  const Server& server = dc.server(target);
  EXPECT_DOUBLE_EQ(server.utilization(), 0.5);
  double expected = 162.5 + 0.5 * 87.5;
  EXPECT_NEAR(server.power_watts(), expected, 1e-9);
  EXPECT_NEAR(dc.row_power_watts(RowId(0)), 7 * 162.5 + expected, 1e-9);
}

TEST(DataCenterTest, PlaceTaskRejectsWhenFull) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  ServerId target(0);
  ASSERT_TRUE(dc.PlaceTask(
      target, TaskSpec{JobId(1), Resources{12.0, 32.0}, SimTime::Minutes(5)}));
  EXPECT_FALSE(dc.PlaceTask(
      target, TaskSpec{JobId(2), Resources{8.0, 8.0}, SimTime::Minutes(5)}));
  // Memory limits are also enforced.
  EXPECT_FALSE(dc.PlaceTask(
      target, TaskSpec{JobId(3), Resources{1.0, 64.0}, SimTime::Minutes(5)}));
}

TEST(DataCenterTest, DuplicateJobOnServerThrows) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TaskSpec spec{JobId(1), Resources{1.0, 1.0}, SimTime::Minutes(5)};
  ASSERT_TRUE(dc.PlaceTask(ServerId(0), spec));
  EXPECT_THROW(dc.PlaceTask(ServerId(0), spec), CheckFailure);
}

TEST(DataCenterTest, TaskCompletesOnScheduleAndRestoresPower) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  std::vector<std::pair<int32_t, int32_t>> completions;
  dc.SetTaskCompletionListener([&](ServerId s, JobId j) {
    completions.emplace_back(s.value(), j.value());
  });
  ASSERT_TRUE(dc.PlaceTask(
      ServerId(3), TaskSpec{JobId(7), Resources{4.0, 8.0},
                            SimTime::Minutes(10)}));
  sim.RunUntil(SimTime::Minutes(9.9));
  EXPECT_TRUE(completions.empty());
  sim.RunUntil(SimTime::Minutes(10.1));
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0], (std::pair<int32_t, int32_t>{3, 7}));
  EXPECT_DOUBLE_EQ(dc.server(ServerId(3)).utilization(), 0.0);
  EXPECT_NEAR(dc.server_power_watts(ServerId(3)), 162.5, 1e-9);
}

TEST(DataCenterTest, AggregatesStayConsistentUnderChurn) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  // Launch staggered tasks across all servers.
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    dc.PlaceTask(ServerId(s),
                 TaskSpec{JobId(100 + s), Resources{4.0, 4.0},
                          SimTime::Minutes(1 + s % 7)});
  }
  for (int step = 0; step < 10; ++step) {
    sim.RunUntil(SimTime::Minutes(step));
    double sum_servers = 0.0;
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      sum_servers += dc.server_power_watts(ServerId(s));
    }
    EXPECT_NEAR(dc.total_power_watts(), sum_servers, 1e-6);
    double sum_rows = dc.row_power_watts(RowId(0)) + dc.row_power_watts(RowId(1));
    EXPECT_NEAR(dc.total_power_watts(), sum_rows, 1e-6);
  }
}

TEST(DataCenterTest, FrozenFlagDoesNotAffectRunningTasks) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  int completions = 0;
  dc.SetTaskCompletionListener([&](ServerId, JobId) { ++completions; });
  ASSERT_TRUE(dc.PlaceTask(
      ServerId(0),
      TaskSpec{JobId(1), Resources{2.0, 2.0}, SimTime::Minutes(5)}));
  dc.SetFrozen(ServerId(0), true);
  EXPECT_TRUE(dc.server(ServerId(0)).frozen());
  sim.RunUntil(SimTime::Minutes(6));
  EXPECT_EQ(completions, 1);  // The task finished normally while frozen.
  dc.SetFrozen(ServerId(0), false);
  EXPECT_FALSE(dc.server(ServerId(0)).frozen());
}

TEST(DataCenterTest, ReservedFlagRoundTrips) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_FALSE(dc.server(ServerId(5)).reserved());
  dc.SetReserved(ServerId(5), true);
  EXPECT_TRUE(dc.server(ServerId(5)).reserved());
}

TEST(DataCenterTest, PowerOfServersSumsSubset) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  std::vector<ServerId> subset{ServerId(0), ServerId(2), ServerId(4)};
  EXPECT_NEAR(dc.PowerOfServers(subset), 3 * 162.5, 1e-9);
}

// --- DVFS capping behaviour ---

TopologyConfig CappedTopology() {
  TopologyConfig config = SmallTopology();
  config.num_rows = 1;
  config.racks_per_row = 1;
  config.servers_per_rack = 4;
  config.capping_enabled = true;
  // Budget well below full demand (idle 650 + dynamic 350 = 1000 W) but
  // reachable at the ladder's minimum step (650 + 350*0.5 = 825 W).
  config.row_budget_watts = 4 * 162.5 + 200.0;
  return config;
}

TEST(DataCenterCappingTest, CapEngagesWhenRowExceedsBudget) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  // Fill all four servers: dynamic demand = 4 * 87.5 = 350 W >> 100 W slack.
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  EXPECT_LT(dc.row_throttle(RowId(0)), 1.0);
  EXPECT_LE(dc.row_power_watts(RowId(0)), 4 * 162.5 + 200.0 + 1e-9);
  EXPECT_TRUE(dc.IsServerCapped(ServerId(0)));
}

TEST(DataCenterCappingTest, CapReleasesWhenLoadDrains) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  ASSERT_LT(dc.row_throttle(RowId(0)), 1.0);
  // Tasks run at half speed -> they need 20 min, not 10.
  sim.RunUntil(SimTime::Minutes(15));
  EXPECT_LT(dc.row_throttle(RowId(0)), 1.0);
  sim.RunUntil(SimTime::Minutes(25));
  EXPECT_DOUBLE_EQ(dc.row_throttle(RowId(0)), 1.0);
  EXPECT_GT(dc.row_capped_time(RowId(0)), SimTime::Minutes(15));
}

TEST(DataCenterCappingTest, ThrottlingStretchesTaskWallClock) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  int completions = 0;
  dc.SetTaskCompletionListener([&](ServerId, JobId) { ++completions; });
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  double throttle = dc.row_throttle(RowId(0));
  ASSERT_LT(throttle, 1.0);
  sim.RunUntil(SimTime::Minutes(10.5));
  EXPECT_EQ(completions, 0);  // Would have finished at 10 min uncapped.
  sim.RunUntil(SimTime::Minutes(10.0 / throttle + 1.0));
  EXPECT_EQ(completions, 4);
}

TEST(DataCenterCappingTest, LoweredCappingBudgetTakesEffect) {
  Simulation sim;
  TopologyConfig config = CappedTopology();
  config.row_budget_watts = 0.0;  // Rated: 1000 W, never violated.
  DataCenter dc(config, &sim);
  ASSERT_TRUE(dc.PlaceTask(
      ServerId(0),
      TaskSpec{JobId(0), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  EXPECT_DOUBLE_EQ(dc.row_throttle(RowId(0)), 1.0);
  // Operator narrows the enforcement target below current draw.
  dc.SetRowCappingBudget(RowId(0), dc.row_power_watts(RowId(0)) - 20.0);
  EXPECT_LT(dc.row_throttle(RowId(0)), 1.0);
}

TEST(DataCenterCappingTest, DisablingCappingReleasesThrottle) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  ASSERT_LT(dc.row_throttle(RowId(0)), 1.0);
  dc.SetCappingEnabled(false);
  EXPECT_DOUBLE_EQ(dc.row_throttle(RowId(0)), 1.0);
  EXPECT_FALSE(dc.IsServerCapped(ServerId(0)));
}

TEST(DataCenterCappingTest, RowCapSkipsSleepingServerPower) {
  // Two racks of four in one row; server 7 sleeps, the other seven run
  // full. Static idle 8 * 162.5 = 1300 W plus 7 * 87.5 W of dynamic demand
  // against 1700 W: the row throttles, but the sleeper keeps its floor.
  TopologyConfig config = CappedTopology();
  config.racks_per_row = 2;
  config.row_budget_watts = 1700.0;
  Simulation sim;
  DataCenter dc(config, &sim);
  const ServerId sleeper(7);
  const double sleep_floor = 0.06 * 250.0;
  dc.SleepServer(sleeper);
  for (int32_t s = 0; s < 7; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  const RowId row(0);
  auto expect_exact_aggregates = [&](const char* when) {
    for (RackId rack : dc.racks_in_row(row)) {
      EXPECT_NEAR(dc.rack_power_watts(rack), dc.ExactRackPowerWatts(rack),
                  1e-9)
          << when << ": rack " << rack.value();
    }
    EXPECT_NEAR(dc.row_power_watts(row), dc.ExactRowPowerWatts(row), 1e-9)
        << when;
    EXPECT_NEAR(dc.total_power_watts(), dc.ExactTotalPowerWatts(), 1e-9)
        << when;
  };

  const double throttle = dc.row_throttle(row);
  ASSERT_LT(throttle, 1.0) << "budget did not bind";
  for (int32_t s = 0; s < 7; ++s) {
    EXPECT_EQ(dc.server(ServerId(s)).frequency(), throttle) << "server " << s;
  }
  EXPECT_TRUE(dc.server(sleeper).asleep());
  EXPECT_EQ(dc.server_power_watts(sleeper), sleep_floor);
  EXPECT_GT(dc.FractionOfServersCapped(row), 0.0);
  expect_exact_aggregates("capped");

  dc.SetCappingEnabled(false);
  for (ServerId id : dc.servers_in_row(row)) {
    EXPECT_EQ(dc.server(id).frequency(), 1.0) << "server " << id.value();
  }
  EXPECT_EQ(dc.FractionOfServersCapped(row), 0.0);
  EXPECT_EQ(dc.server_power_watts(sleeper), sleep_floor);
  expect_exact_aggregates("released");
}

TEST(DataCenterCappingTest, BreakerTripsWithoutCapping) {
  Simulation sim;
  TopologyConfig config = CappedTopology();
  config.capping_enabled = false;
  config.breaker.tolerance = 1.05;
  config.breaker.trip_delay = SimTime::Seconds(30);
  DataCenter dc(config, &sim);
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{16.0, 16.0}, SimTime::Minutes(10)}));
  }
  // Severe sustained overload with no protection; the breaker needs to see
  // observations, which arrive with task events. Schedule a nudge task.
  for (int t = 1; t <= 60; ++t) {
    sim.ScheduleAt(SimTime::Seconds(t), [&dc, t] {
      dc.PlaceTask(ServerId(0), TaskSpec{JobId(1000 + t), Resources{0.0, 0.0},
                                         SimTime::Minutes(1)});
    });
  }
  sim.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(dc.AnyBreakerTripped());
}

TEST(DataCenterTest, ExactAccessorsMatchIncrementalAggregates) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  for (int32_t s = 0; s < 8; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{8.0, 16.0}, SimTime::Minutes(5)}));
  }
  // A handful of mutations introduces no measurable drift yet: exact and
  // incremental agree tightly at every level.
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    EXPECT_NEAR(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)),
                1e-9);
  }
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    EXPECT_NEAR(dc.rack_power_watts(RackId(k)),
                dc.ExactRackPowerWatts(RackId(k)), 1e-9);
  }
  EXPECT_NEAR(dc.total_power_watts(), dc.ExactTotalPowerWatts(), 1e-9);
}

TEST(DataCenterTest, ResummateSnapsAggregatesToExactSums) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  for (int32_t s = 0; s < 16; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s),
        TaskSpec{JobId(s), Resources{4.0, 8.0}, SimTime::Minutes(5)}));
  }
  EXPECT_GT(dc.power_mutations_since_resum(), 0u);
  dc.ResummatePowerAggregates();
  EXPECT_EQ(dc.power_mutations_since_resum(), 0u);
  // After a snap the aggregates are bitwise equal to the exact sums (the
  // resummation and the exact accessors use the same summation order).
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    EXPECT_EQ(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)));
  }
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    EXPECT_EQ(dc.rack_power_watts(RackId(k)),
              dc.ExactRackPowerWatts(RackId(k)));
  }
  EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts());
  // Resummation is idempotent.
  dc.ResummatePowerAggregates();
  EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts());
}

// --- Task pool and typed completions ---

// Sum of running tasks over every server.
size_t RunningTasks(const DataCenter& dc) {
  size_t n = 0;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    n += dc.server(ServerId(s)).num_tasks();
  }
  return n;
}

TEST(DataCenterTaskPoolTest, TwoFrequencyStepsCompleteEachTaskOnceOnTime) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  // A 10 W slack: any running task pins the row at the ladder minimum, so
  // completions do not move the throttle until the last one.
  dc.SetRowCappingBudget(RowId(0), 4 * 162.5 + 10.0);
  std::map<int32_t, std::vector<SimTime>> completions;
  dc.SetTaskCompletionListener([&](ServerId, JobId job) {
    completions[job.value()].push_back(sim.now());
  });
  // One closure queued beside the completions.
  bool other_fired = false;
  sim.ScheduleAt(SimTime::Minutes(90), [&] { other_fired = true; });
  const std::vector<SimTime> work = {SimTime::Minutes(10),
                                     SimTime::Minutes(12),
                                     SimTime::Minutes(14),
                                     SimTime::Minutes(16)};
  for (int32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(s), TaskSpec{JobId(s), Resources{16.0, 16.0},
                              work[static_cast<size_t>(s)]}));
  }
  const double f = dc.row_throttle(RowId(0));
  ASSERT_LT(f, 1.0);
  EXPECT_EQ(sim.pending_events(), RunningTasks(dc) + 1);

  // Step 1 at 3 min: release to full speed.
  sim.RunUntil(SimTime::Minutes(3));
  dc.SetCappingEnabled(false);
  EXPECT_EQ(sim.pending_events(), RunningTasks(dc) + 1);
  // Step 2 at 5 min: back to the same throttle.
  sim.RunUntil(SimTime::Minutes(5));
  dc.SetCappingEnabled(true);
  ASSERT_EQ(dc.row_throttle(RowId(0)), f);
  EXPECT_EQ(sim.pending_events(), RunningTasks(dc) + 1);

  while (RunningTasks(dc) > 0) {
    ASSERT_TRUE(sim.Step());
    EXPECT_EQ(sim.pending_events(), RunningTasks(dc) + (other_fired ? 0 : 1));
  }
  EXPECT_FALSE(other_fired);
  ASSERT_EQ(completions.size(), 4u);
  for (int32_t s = 0; s < 4; ++s) {
    // The reconcile's own arithmetic: 3 min at f, 2 min at 1.0, the rest
    // at f from 5 min.
    SimTime remaining =
        work[static_cast<size_t>(s)] - SimTime::Minutes(3) * f;
    remaining = remaining - SimTime::Minutes(2) * 1.0;
    ASSERT_EQ(completions[s].size(), 1u) << "job " << s;
    EXPECT_EQ(completions[s][0], SimTime::Minutes(5) + remaining * (1.0 / f))
        << "job " << s;
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunToCompletion();
  EXPECT_TRUE(other_fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(DataCenterTaskPoolTest, ReusedRecordNeverFiresAStaleCompletion) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  std::vector<std::pair<int32_t, SimTime>> completions;
  dc.SetTaskCompletionListener([&](ServerId, JobId job) {
    completions.emplace_back(job.value(), sim.now());
  });
  ASSERT_TRUE(dc.PlaceTask(ServerId(0), TaskSpec{JobId(1),
                                                 Resources{16.0, 16.0},
                                                 SimTime::Minutes(10)}));
  // Throttle, then release at 2 min: job 1's record is rescheduled twice,
  // leaving stale entries at 10 min and at 10 min / f.
  dc.SetRowCappingBudget(RowId(0), 4 * 162.5 + 10.0);
  const double f = dc.row_throttle(RowId(0));
  ASSERT_LT(f, 1.0);
  sim.RunUntil(SimTime::Minutes(2));
  dc.SetRowCappingBudget(RowId(0), 4 * 162.5 + 200.0);
  ASSERT_EQ(dc.row_throttle(RowId(0)), 1.0);
  const SimTime done1 = SimTime::Minutes(2) +
                        (SimTime::Minutes(10) - SimTime::Minutes(2) * f);
  ASSERT_LT(done1, SimTime::Minutes(10) * (1.0 / f));
  sim.RunUntil(done1);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0], (std::pair<int32_t, SimTime>{1, done1}));

  // Job 2 on another server takes over job 1's record while the stale
  // 10 min / f entry is still queued.
  ASSERT_TRUE(dc.PlaceTask(ServerId(1), TaskSpec{JobId(2),
                                                 Resources{16.0, 16.0},
                                                 SimTime::Minutes(20)}));
  EXPECT_EQ(dc.task_pool_size(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(done1 + SimTime::Minutes(19));
  EXPECT_EQ(completions.size(), 1u);
  EXPECT_EQ(dc.server(ServerId(1)).num_tasks(), 1u);
  sim.RunToCompletion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[1],
            (std::pair<int32_t, SimTime>{2, done1 + SimTime::Minutes(20)}));
  EXPECT_EQ(dc.task_pool_size(), 1u);
}

// Whether the record location `dc` published to `sim` names every record
// of its task pool, live or free.
::testing::AssertionResult PublishedRecordsCurrent(const Simulation& sim,
                                                   const DataCenter& dc) {
  for (uint32_t i = 0; i < dc.task_pool_size(); ++i) {
    if (sim.target_record(dc.event_target(), i) !=
        dc.task_record_address(i)) {
      return ::testing::AssertionFailure()
             << "record " << i << " of " << dc.task_pool_size()
             << " is not where the published location says";
    }
  }
  return ::testing::AssertionSuccess();
}

// The core prefetches the next completion's record from the location the
// DC publishes. A location left stale by the pool's growth changes no
// result, it only loses the prefetch, so nothing but this test notices.
// Three waves, each larger than the last, grow the pool through eight
// reallocations; the runs between them free records that the next wave
// takes over.
TEST(DataCenterTaskPoolTest, PublishedRecordLocationTracksPoolGrowth) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  EXPECT_EQ(sim.target_record(dc.event_target(), 0), nullptr);
  int32_t job = 0;
  for (int wave = 1; wave <= 3; ++wave) {
    SCOPED_TRACE(wave);
    for (int k = 0; k < 40 * wave; ++k, ++job) {
      ASSERT_TRUE(dc.PlaceTask(
          ServerId(job % dc.num_servers()),
          TaskSpec{JobId(job), Resources{0.25, 0.5},
                   SimTime::Minutes(1 + job % 7)}));
      ASSERT_TRUE(PublishedRecordsCurrent(sim, dc));
    }
    // Frees the records of the jobs of up to four minutes.
    sim.RunUntil(sim.now() + SimTime::Minutes(4));
    ASSERT_TRUE(PublishedRecordsCurrent(sim, dc));
  }
  // Recycled: fewer records than jobs; grown: past 2^7.
  EXPECT_LT(dc.task_pool_size(), static_cast<size_t>(job));
  EXPECT_GT(dc.task_pool_size(), 128u);
}

TEST(DataCenterTaskPoolTest, SleepRejectsServerWithTasksUntilTheyComplete) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  ASSERT_TRUE(dc.PlaceTask(ServerId(2), TaskSpec{JobId(1),
                                                 Resources{1.0, 1.0},
                                                 SimTime::Minutes(5)}));
  EXPECT_THROW(dc.SleepServer(ServerId(2)), CheckFailure);
  EXPECT_FALSE(dc.server(ServerId(2)).asleep());
  sim.RunUntil(SimTime::Minutes(5));
  EXPECT_EQ(dc.server(ServerId(2)).num_tasks(), 0u);
  dc.SleepServer(ServerId(2));
  EXPECT_TRUE(dc.server(ServerId(2)).asleep());
}

// --- Task table spill --------------------------------------------------------
//
// A server keeps its first Server::kInlineTasks tasks inline and
// spills the rest to the heap. 40 quarter-core tasks on one server cross
// that boundary several times over.

constexpr int kSpillTasks = 40;
static_assert(kSpillTasks > 2 * static_cast<int>(Server::kInlineTasks));

// Job ids in insertion order, deliberately not sorted by value.
JobId SpillJob(int position) {
  return JobId(100 + (position * 17) % kSpillTasks);
}

TEST(DataCenterTaskTableTest, InsertionOrderSurvivesSpillEraseAndRetime) {
  Simulation sim;
  DataCenter dc(CappedTopology(), &sim);
  // A 10 W slack: any running task pins the row at the ladder minimum.
  dc.SetRowCappingBudget(RowId(0), 4 * 162.5 + 10.0);
  std::vector<int32_t> completed;
  dc.SetTaskCompletionListener(
      [&](ServerId, JobId job) { completed.push_back(job.value()); });
  // Positions 2 (inline) and 30 (spilled) finish early; every other task
  // has the same work, so after the retimes below they all complete at one
  // instant, in the order of the walk that rescheduled them last.
  const int kInlineEarly = 2;
  const int kSpilledEarly = 30;
  for (int p = 0; p < kSpillTasks; ++p) {
    const bool early = p == kInlineEarly || p == kSpilledEarly;
    ASSERT_TRUE(dc.PlaceTask(
        ServerId(0),
        TaskSpec{SpillJob(p), Resources{0.25, 0.5},
                 early ? SimTime::Minutes(1) : SimTime::Minutes(20)}));
  }
  ASSERT_EQ(dc.server(ServerId(0)).num_tasks(),
            static_cast<size_t>(kSpillTasks));
  ASSERT_LT(dc.row_throttle(RowId(0)), 1.0);

  // Erase one inline and one spilled entry (the inline erase pulls the
  // oldest spilled entry up into the inline part).
  sim.RunUntil(SimTime::Minutes(3));
  EXPECT_EQ(completed, (std::vector<int32_t>{SpillJob(kInlineEarly).value(),
                                             SpillJob(kSpilledEarly).value()}));
  EXPECT_EQ(dc.server(ServerId(0)).num_tasks(),
            static_cast<size_t>(kSpillTasks - 2));
  completed.clear();

  // Two retimes of the whole table: release to full speed, then re-cap.
  dc.SetCappingEnabled(false);
  sim.RunUntil(SimTime::Minutes(5));
  dc.SetCappingEnabled(true);
  ASSERT_LT(dc.row_throttle(RowId(0)), 1.0);

  sim.RunToCompletion();
  std::vector<int32_t> want;
  for (int p = 0; p < kSpillTasks; ++p) {
    if (p != kInlineEarly && p != kSpilledEarly) {
      want.push_back(SpillJob(p).value());
    }
  }
  EXPECT_EQ(completed, want);
  EXPECT_EQ(dc.server(ServerId(0)).num_tasks(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(DataCenterTaskTableTest, DuplicateJobRejectedInlineAndSpilled) {
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  for (int p = 0; p < kSpillTasks; ++p) {
    ASSERT_TRUE(dc.PlaceTask(ServerId(0), TaskSpec{SpillJob(p),
                                                   Resources{0.25, 0.5},
                                                   SimTime::Minutes(20)}));
  }
  const Resources before = dc.server(ServerId(0)).allocated();
  for (int p : {0, static_cast<int>(Server::kInlineTasks) - 1,
                static_cast<int>(Server::kInlineTasks),
                kSpillTasks - 1}) {
    EXPECT_THROW(dc.PlaceTask(ServerId(0), TaskSpec{SpillJob(p),
                                                    Resources{0.25, 0.5},
                                                    SimTime::Minutes(5)}),
                 CheckFailure)
        << "position " << p;
  }
  EXPECT_EQ(dc.server(ServerId(0)).num_tasks(),
            static_cast<size_t>(kSpillTasks));
  EXPECT_EQ(dc.server(ServerId(0)).allocated(), before);
  EXPECT_EQ(sim.pending_events(), static_cast<size_t>(kSpillTasks));
  // A new job still appends after the spilled entries.
  EXPECT_TRUE(dc.PlaceTask(ServerId(0), TaskSpec{JobId(999),
                                                 Resources{0.25, 0.5},
                                                 SimTime::Minutes(5)}));
  EXPECT_EQ(dc.server(ServerId(0)).num_tasks(),
            static_cast<size_t>(kSpillTasks + 1));
}

}  // namespace
}  // namespace ampere
