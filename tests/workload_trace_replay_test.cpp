#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/sched/scheduler.h"
#include "src/workload/trace_format.h"

namespace ampere {
namespace {

std::shared_ptr<const TraceData> SmallTrace() {
  auto job = [](double submit_min, double duration_min, double cpu,
                double memory, int32_t row) {
    TraceJob j;
    j.submit_us = SimTime::Minutes(submit_min).micros();
    j.duration_us = SimTime::Minutes(duration_min).micros();
    j.cpu_cores = cpu;
    j.memory_gb = memory;
    j.row_affinity = row;
    return j;
  };
  auto trace = std::make_shared<TraceData>();
  trace->jobs = {job(0.5, 3.0, 2.0, 4.0, -1), job(1.0, 9.0, 1.0, 2.0, 0),
                 job(2.5, 0.5, 4.0, 8.0, 1)};
  return trace;
}

TEST(SampleTraceTest, MatchesWorkloadStatistics) {
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 50.0;
  params.arrivals.diurnal_amplitude = 0.0;
  params.arrivals.ar_sigma = 0.0;
  params.arrivals.burst_prob = 0.0;
  const TraceData trace = SampleTrace(params, SimTime::Hours(2), Rng(3));
  // ~50 jobs/min * 120 min, every job tagged with its op-mix class.
  EXPECT_NEAR(static_cast<double>(trace.jobs.size()), 6000.0, 300.0);
  EXPECT_EQ(trace.classes.size(), 3u);
  double mean_minutes = 0.0;
  for (const TraceJob& job : trace.jobs) {
    EXPECT_GE(job.submit_us, 0);
    EXPECT_LT(job.submit_us, SimTime::Hours(2).micros());
    EXPECT_NE(job.class_id, kTraceCustomClass);
    mean_minutes += SimTime::Micros(job.duration_us).minutes();
  }
  mean_minutes /= static_cast<double>(trace.jobs.size());
  EXPECT_NEAR(mean_minutes, 9.1, 0.5);
  // The sampled trace is valid ampere.trace.v1 data.
  const TraceParseResult parsed = ParseTrace(SerializeTrace(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.message;
  EXPECT_EQ(parsed.trace.jobs.size(), trace.jobs.size());
}

TEST(SampleTraceTest, CarriesRowAffinity) {
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 10.0;
  params.row_affinity = RowId(2);
  const TraceData trace = SampleTrace(params, SimTime::Minutes(10), Rng(4));
  ASSERT_FALSE(trace.jobs.empty());
  for (const TraceJob& job : trace.jobs) {
    EXPECT_EQ(job.row_affinity, 2);
  }
}

TEST(TraceWorkloadTest, ReplaysIntoScheduler) {
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = 2;
  topo.racks_per_row = 1;
  topo.servers_per_rack = 4;
  DataCenter dc(topo, &sim);
  Scheduler scheduler(&dc, SchedulerConfig{}, Rng(5));
  JobIdAllocator ids;
  TraceArrivalProcess workload(SmallTrace(), &sim, &scheduler, &ids);
  EXPECT_EQ(workload.jobs_total(), 3u);
  workload.Start(SimTime());
  sim.RunUntil(SimTime::Minutes(0.75));
  EXPECT_EQ(workload.jobs_submitted(), 1u);
  sim.RunUntil(SimTime::Minutes(3.0));
  EXPECT_EQ(workload.jobs_submitted(), 3u);
  EXPECT_EQ(scheduler.jobs_placed(), 3u);
  // Row affinities respected.
  EXPECT_EQ(scheduler.placements_in_row(RowId(1)), 1u);
}

TEST(TraceWorkloadTest, ReplayIsDeterministicAndEquivalentToGenerator) {
  // A sampled trace replayed through the scheduler places the same jobs,
  // with the same resulting power, as the generator it was sampled from.
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 20.0;
  auto trace = std::make_shared<const TraceData>(
      SampleTrace(params, SimTime::Hours(1), Rng(6)));

  auto run = [&](bool replay) {
    Simulation sim;
    TopologyConfig topo;
    topo.num_rows = 1;
    topo.racks_per_row = 2;
    topo.servers_per_rack = 10;
    DataCenter dc(topo, &sim);
    Scheduler scheduler(&dc, SchedulerConfig{}, Rng(7));
    JobIdAllocator ids;
    std::unique_ptr<TraceArrivalProcess> replayed;
    std::unique_ptr<BatchWorkload> generated;
    if (replay) {
      replayed = std::make_unique<TraceArrivalProcess>(trace, &sim,
                                                       &scheduler, &ids);
      replayed->Start(SimTime());
    } else {
      generated = std::make_unique<BatchWorkload>(params, &sim, &scheduler,
                                                  &ids, Rng(6));
      generated->Start(SimTime());
    }
    // The generator runs on past the sampled hour; compare inside it.
    sim.RunUntil(SimTime::Hours(1) - SimTime::Micros(1));
    return std::pair{scheduler.jobs_placed(), dc.total_power_watts()};
  };
  const auto a = run(true);
  const auto b = run(true);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto generated = run(false);
  EXPECT_EQ(a.first, generated.first);
  EXPECT_EQ(a.second, generated.second);
}

TEST(TraceWorkloadTest, DoubleStartThrows) {
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = 1;
  topo.racks_per_row = 1;
  topo.servers_per_rack = 2;
  DataCenter dc(topo, &sim);
  Scheduler scheduler(&dc, SchedulerConfig{}, Rng(8));
  JobIdAllocator ids;
  TraceArrivalProcess workload(SmallTrace(), &sim, &scheduler, &ids);
  workload.Start(SimTime());
  EXPECT_THROW(workload.Start(SimTime()), CheckFailure);
}

}  // namespace
}  // namespace ampere
