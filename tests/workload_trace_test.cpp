#include "src/workload/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/common/check.h"
#include "src/sched/scheduler.h"
#include "tests/scratch_dir.h"

namespace ampere {
namespace {

std::vector<TraceRecord> SmallTrace() {
  return {
      {0.5, 3.0, 2.0, 4.0, -1},
      {1.0, 9.0, 1.0, 2.0, 0},
      {2.5, 0.5, 4.0, 8.0, 1},
  };
}

TEST(TraceCsvTest, RoundTripPreservesRecords) {
  std::ostringstream out;
  WriteJobTrace(out, SmallTrace());
  std::istringstream in(out.str());
  auto trace = ReadJobTrace(in);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[0].submit_minutes, 0.5);
  EXPECT_DOUBLE_EQ(trace[1].duration_minutes, 9.0);
  EXPECT_DOUBLE_EQ(trace[2].cpu_cores, 4.0);
  EXPECT_EQ(trace[0].row_affinity, -1);
  EXPECT_EQ(trace[2].row_affinity, 1);
}

TEST(TraceCsvTest, RejectsBadHeader) {
  std::istringstream in("submit,duration\n1,2\n");
  EXPECT_THROW(ReadJobTrace(in), CheckFailure);
}

TEST(TraceCsvTest, RejectsTooFewFields) {
  std::istringstream in(
      "submit_min,duration_min,cpu_cores,memory_gb,row\n1.0,2.0,1.0\n");
  EXPECT_THROW(ReadJobTrace(in), CheckFailure);
}

TEST(TraceCsvTest, RejectsNonNumeric) {
  std::istringstream in(
      "submit_min,duration_min,cpu_cores,memory_gb,row\n1.0,x,1.0,2.0,-1\n");
  EXPECT_THROW(ReadJobTrace(in), CheckFailure);
}

TEST(TraceCsvTest, RejectsOutOfRange) {
  std::istringstream in(
      "submit_min,duration_min,cpu_cores,memory_gb,row\n1.0,0.0,1.0,2.0,-1\n");
  EXPECT_THROW(ReadJobTrace(in), CheckFailure);
}

TEST(TraceCsvTest, SkipsEmptyLines) {
  std::istringstream in(
      "submit_min,duration_min,cpu_cores,memory_gb,row\n\n1.0,2.0,1.0,2.0,-1"
      "\n\n");
  EXPECT_EQ(ReadJobTrace(in).size(), 1u);
}

TEST(TraceCsvTest, FileRoundTrip) {
  const ScratchDir scratch("trace_csv");
  const std::string path = scratch.path() + "/trace.csv";
  WriteJobTraceFile(path, SmallTrace());
  auto trace = ReadJobTraceFile(path);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(SampleTraceTest, MatchesWorkloadStatistics) {
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 50.0;
  params.arrivals.diurnal_amplitude = 0.0;
  params.arrivals.ar_sigma = 0.0;
  params.arrivals.burst_prob = 0.0;
  auto trace = SampleTrace(params, SimTime::Hours(2), Rng(3));
  // ~50 jobs/min * 120 min.
  EXPECT_NEAR(static_cast<double>(trace.size()), 6000.0, 300.0);
  double mean_duration = 0.0;
  for (const TraceRecord& r : trace) {
    EXPECT_GE(r.submit_minutes, 0.0);
    EXPECT_LT(r.submit_minutes, 120.0);
    mean_duration += r.duration_minutes;
  }
  mean_duration /= static_cast<double>(trace.size());
  EXPECT_NEAR(mean_duration, 9.1, 0.5);
}

TEST(SampleTraceTest, CarriesRowAffinity) {
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 10.0;
  params.row_affinity = RowId(2);
  auto trace = SampleTrace(params, SimTime::Minutes(10), Rng(4));
  ASSERT_FALSE(trace.empty());
  for (const TraceRecord& r : trace) {
    EXPECT_EQ(r.row_affinity, 2);
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
  TraceWorkload workload(SmallTrace(), &sim, &scheduler, &ids);
  EXPECT_EQ(workload.jobs_total(), 3u);
  workload.Start();
  sim.RunUntil(SimTime::Minutes(0.75));
  EXPECT_EQ(workload.jobs_submitted(), 1u);
  sim.RunUntil(SimTime::Minutes(3.0));
  EXPECT_EQ(workload.jobs_submitted(), 3u);
  EXPECT_EQ(scheduler.jobs_placed(), 3u);
  // Row affinities respected.
  EXPECT_EQ(scheduler.placements_in_row(RowId(1)), 1u);
}

TEST(TraceWorkloadTest, ReplayIsDeterministicAndEquivalentToGenerator) {
  // A captured trace replayed through the scheduler produces the same
  // placements as any identical trace replay.
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 20.0;
  auto trace = SampleTrace(params, SimTime::Hours(1), Rng(6));

  auto run = [&trace]() {
    Simulation sim;
    TopologyConfig topo;
    topo.num_rows = 1;
    topo.racks_per_row = 2;
    topo.servers_per_rack = 10;
    DataCenter dc(topo, &sim);
    Scheduler scheduler(&dc, SchedulerConfig{}, Rng(7));
    JobIdAllocator ids;
    TraceWorkload workload(trace, &sim, &scheduler, &ids);
    workload.Start();
    sim.RunUntil(SimTime::Hours(3));
    return std::pair{scheduler.jobs_placed(), dc.total_power_watts()};
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
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
  TraceWorkload workload(SmallTrace(), &sim, &scheduler, &ids);
  workload.Start();
  EXPECT_THROW(workload.Start(), CheckFailure);
}

}  // namespace
}  // namespace ampere
