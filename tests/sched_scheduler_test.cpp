#include "src/sched/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

namespace ampere {
namespace {

TopologyConfig TwoRowTopology() {
  TopologyConfig config;
  config.num_rows = 2;
  config.racks_per_row = 1;
  config.servers_per_rack = 8;
  config.server_capacity = Resources{16.0, 64.0};
  return config;
}

JobSpec MakeJob(int32_t id, double cores = 2.0,
                SimTime duration = SimTime::Minutes(5)) {
  JobSpec job;
  job.id = JobId(id);
  job.demand = Resources{cores, cores * 2.0};
  job.duration = duration;
  return job;
}

struct Fixture {
  Simulation sim;
  DataCenter dc;
  Scheduler scheduler;
  Fixture()
      : dc(TwoRowTopology(), &sim),
        scheduler(&dc, SchedulerConfig{}, Rng(17)) {}
};

TEST(SchedulerTest, PlacesSubmittedJob) {
  Fixture f;
  f.scheduler.Submit(MakeJob(1));
  EXPECT_EQ(f.scheduler.jobs_submitted(), 1u);
  EXPECT_EQ(f.scheduler.jobs_placed(), 1u);
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
}

TEST(SchedulerTest, NeverPlacesOnFrozenServers) {
  Fixture f;
  // Freeze everything except server 5.
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    if (s != 5) {
      f.scheduler.Freeze(ServerId(s));
    }
  }
  for (int i = 0; i < 6; ++i) {
    f.scheduler.Submit(MakeJob(100 + i));
  }
  EXPECT_EQ(f.scheduler.jobs_placed(), 6u);
  EXPECT_EQ(f.dc.server(ServerId(5)).num_tasks(), 6u);
}

TEST(SchedulerTest, AllFrozenQueuesJobs) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  f.scheduler.Submit(MakeJob(1));
  EXPECT_EQ(f.scheduler.jobs_placed(), 0u);
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
}

TEST(SchedulerTest, UnfreezeDrainsQueue) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  f.scheduler.Submit(MakeJob(1));
  f.scheduler.Submit(MakeJob(2));
  ASSERT_EQ(f.scheduler.queue_length(), 2u);
  f.scheduler.Unfreeze(ServerId(3));
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
  EXPECT_EQ(f.dc.server(ServerId(3)).num_tasks(), 2u);
}

TEST(SchedulerTest, CompletionDrainsQueue) {
  Fixture f;
  // Fill every server to capacity with 16-core jobs.
  int32_t id = 0;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Submit(MakeJob(id++, 16.0, SimTime::Minutes(1)));
  }
  f.scheduler.Submit(MakeJob(id++, 16.0, SimTime::Minutes(1)));
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  f.sim.RunUntil(SimTime::Minutes(1.5));
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
  EXPECT_EQ(f.scheduler.jobs_completed(), 16u);
}

TEST(SchedulerTest, RowAffinityRespected) {
  Fixture f;
  for (int i = 0; i < 20; ++i) {
    JobSpec job = MakeJob(200 + i);
    job.row_affinity = RowId(1);
    f.scheduler.Submit(job);
  }
  EXPECT_EQ(f.scheduler.placements_in_row(RowId(0)), 0u);
  EXPECT_EQ(f.scheduler.placements_in_row(RowId(1)), 20u);
}

TEST(SchedulerTest, ReservedServersSkipped) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    if (s != 7) {
      f.dc.SetReserved(ServerId(s), true);
    }
  }
  for (int i = 0; i < 4; ++i) {
    f.scheduler.Submit(MakeJob(300 + i));
  }
  EXPECT_EQ(f.dc.server(ServerId(7)).num_tasks(), 4u);
}

TEST(SchedulerTest, PlacementListenerFires) {
  Fixture f;
  std::vector<int32_t> placed_on;
  f.scheduler.SetPlacementListener(
      [&](const JobSpec&, ServerId s) { placed_on.push_back(s.value()); });
  f.scheduler.Submit(MakeJob(1));
  f.scheduler.Submit(MakeJob(2));
  EXPECT_EQ(placed_on.size(), 2u);
}

TEST(SchedulerTest, StatisticalSpreadAcrossRows) {
  // With random-fit and symmetric rows, placements split roughly evenly —
  // the statistical property Ampere's indirect control relies on (§3.4).
  Fixture f;
  for (int i = 0; i < 2000; ++i) {
    f.scheduler.Submit(MakeJob(1000 + i, 1.0, SimTime::Hours(10)));
  }
  auto row0 = static_cast<double>(f.scheduler.placements_in_row(RowId(0)));
  auto row1 = static_cast<double>(f.scheduler.placements_in_row(RowId(1)));
  EXPECT_NEAR(row0 / (row0 + row1), 0.5, 0.05);
}

TEST(SchedulerTest, FreezingShiftsPlacementShareProportionally) {
  // Freeze half of row 0: its share of new placements should drop to ~1/3
  // (4 available vs 8 in row 1).
  Fixture f;
  for (int32_t s = 0; s < 4; ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  for (int i = 0; i < 3000; ++i) {
    f.scheduler.Submit(MakeJob(1000 + i, 0.1, SimTime::Hours(10)));
  }
  auto row0 = static_cast<double>(f.scheduler.placements_in_row(RowId(0)));
  auto row1 = static_cast<double>(f.scheduler.placements_in_row(RowId(1)));
  EXPECT_NEAR(row0 / (row0 + row1), 1.0 / 3.0, 0.05);
}

TEST(SchedulerTest, OversizedJobStaysQueuedWithoutBlockingOthers) {
  Fixture f;
  f.scheduler.Submit(MakeJob(1, 32.0));  // Larger than any server.
  f.scheduler.Submit(MakeJob(2, 2.0));
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  EXPECT_EQ(f.scheduler.jobs_placed(), 1u);
}

TEST(SchedulerTest, HopelessSubmitAdvancesRngLikeTheFailingScan) {
  // With every server frozen the probes fail and the free-capacity root
  // rules the scan out; the scheduler must still consume exactly the draws
  // of a failing scan: sample_attempts probes plus one scan origin.
  Fixture f;
  Rng mirror(17);  // The scheduler's stream, replayed alongside it.
  const int64_t n = f.dc.num_servers();
  const int draws_per_failure = SchedulerConfig{}.sample_attempts + 1;
  ServerId placed;
  f.scheduler.SetPlacementListener(
      [&placed](const JobSpec&, ServerId server) { placed = server; });
  for (int round = 0; round < 8; ++round) {
    for (int32_t s = 0; s < n; ++s) {
      f.scheduler.Freeze(ServerId(s));
    }
    f.scheduler.Submit(MakeJob(2 * round));
    ASSERT_EQ(f.scheduler.queue_length(), 1u);
    for (int draw = 0; draw < draws_per_failure; ++draw) {
      mirror.UniformInt(0, n - 1);
    }
    // Clear the queue so unfreezing drains nothing, then observe the next
    // draw: on an idle, unfrozen DC the first probe always succeeds.
    ASSERT_EQ(f.scheduler.TakePending(1).size(), 1u);
    for (int32_t s = 0; s < n; ++s) {
      f.scheduler.Unfreeze(ServerId(s));
    }
    f.scheduler.Submit(MakeJob(2 * round + 1));
    ASSERT_EQ(placed.value(), mirror.UniformInt(0, n - 1)) << "round "
                                                           << round;
    f.sim.RunUntil(f.sim.now() + SimTime::Hours(1));  // Back to idle.
  }
}

TEST(SchedulerTest, TakePendingSkipsPinnedJobsAndKeepsOrder) {
  Fixture f;
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Freeze(ServerId(s));
  }
  // Queue: 0 pinned, 1, 2 pinned, 3, 4, 5 pinned, 6.
  for (int32_t i = 0; i < 7; ++i) {
    JobSpec job = MakeJob(i);
    if (i == 0 || i == 2 || i == 5) {
      job.row_affinity = RowId(0);
    }
    f.scheduler.Submit(job);
  }
  ASSERT_EQ(f.scheduler.queue_length(), 7u);
  std::vector<int32_t> taken;
  for (const JobSpec& job : f.scheduler.TakePending(2)) {
    taken.push_back(job.id.value());
  }
  EXPECT_EQ(taken, (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(f.scheduler.jobs_spilled_out(), 2u);
  // What stays queued keeps its order: drain it one job at a time.
  std::vector<int32_t> rest;
  f.scheduler.SetPlacementListener(
      [&rest](const JobSpec& job, ServerId) {
        rest.push_back(job.id.value());
      });
  for (int32_t s = 0; s < f.dc.num_servers(); ++s) {
    f.scheduler.Unfreeze(ServerId(s));
  }
  EXPECT_EQ(rest, (std::vector<int32_t>{0, 2, 4, 5, 6}));
  EXPECT_TRUE(f.scheduler.TakePending(4).empty());
}

}  // namespace
}  // namespace ampere
