// Extension (paper §6 future work): "scheduling the jobs to different rows
// so that there can be a larger variance in power utilization across
// different rows, leading to more unused power to cultivate."
//
// The kConcentrateRows placement policy packs new jobs onto already-busy
// rows (below a per-row power ceiling), leaving other rows cold. Total
// slack (budget minus draw) is conserved — power has to go somewhere — so
// the win is CONSOLIDATION, not creation: compared with uniform random
// placement at the same total load, concentration
//   * raises the cross-row power variance,
//   * gathers the headroom into one large, temporally stable block on the
//     cold row (where whole racks of extra servers can be provisioned with
//     a tiny safety margin) instead of thin slivers on every row,
// without losing throughput (the policy is work-conserving).

#include <cmath>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fleet.h"
#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"
#include "src/workload/batch_workload.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160426;
constexpr int kRows = 4;
constexpr int kServersPerRow = 80;

struct PolicyOutcome {
  double row_power_stddev = 0.0;   // Across rows, of per-row mean power.
  double headroom_watts = 0.0;     // Sum over rows of budget - p95(power).
  double max_row_headroom = 0.0;   // Largest single-row p95 headroom.
  double coldest_row_stddev = 0.0; // Temporal stddev of the coldest row.
  uint64_t jobs_placed = 0;
  size_t queue_length = 0;
  std::vector<double> row_mean;
  std::vector<double> row_p95;
};

PolicyOutcome RunPolicy(PlacementPolicy policy) {
  Rng rng(kSeed);
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = kRows;
  topo.racks_per_row = 4;
  topo.servers_per_rack = kServersPerRow / 4;
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;
  SchedulerConfig sched_config;
  sched_config.policy = policy;
  Scheduler scheduler(&dc, sched_config, rng.Fork(1));
  PowerMonitorConfig mc;
  PowerMonitor monitor(&dc, &db, mc, rng.Fork(2));
  JobIdAllocator ids;
  BatchWorkloadParams params;
  // Total demand ~45 % CPU across the fleet: enough to fully load ~2 of the
  // 4 rows when concentrated.
  params.arrivals.base_rate_per_min = 0.45 * kRows * kServersPerRow * 16.0 /
                                      (9.1 * 2.0);
  params.arrivals.ar_sigma = 0.02;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  sim.RunUntil(SimTime::Hours(26));

  PolicyOutcome out;
  std::vector<double> row_means;
  double coldest_mean = 1e18;
  for (int32_t r = 0; r < kRows; ++r) {
    std::vector<double> watts;
    db.QueryStitched(PowerMonitor::RowSeries(RowId(r)), SimTime::Hours(2),
                     SimTime::Hours(26))
        .ForEachPoint(
            [&watts](const TimePoint& p) { watts.push_back(p.value); });
    Summary s = Summarize(watts);
    row_means.push_back(s.mean);
    double p95 = Percentile(watts, 0.95);
    out.row_mean.push_back(s.mean);
    out.row_p95.push_back(p95);
    double headroom = std::max(0.0, dc.row_budget_watts(RowId(r)) - p95);
    out.headroom_watts += headroom;
    out.max_row_headroom = std::max(out.max_row_headroom, headroom);
    if (s.mean < coldest_mean) {
      coldest_mean = s.mean;
      out.coldest_row_stddev = s.stddev;
    }
  }
  out.row_power_stddev = Summarize(row_means).stddev;
  out.jobs_placed = scheduler.jobs_placed();
  out.queue_length = scheduler.queue_length();
  return out;
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Extension: variance-cultivating placement",
                "random-fit vs concentrate-rows (§6 future work)", kSeed);

  struct PolicySpec {
    const char* name;
    PlacementPolicy policy;
  };
  const std::vector<PolicySpec> policies = {
      {"random-fit", PlacementPolicy::kRandomFit},
      {"concentrate", PlacementPolicy::kConcentrateRows},
  };
  auto grid = harness::RunGrid(
      policies,
      [](const PolicySpec& spec, size_t) {
        return harness::GridMeta{spec.name, kSeed};
      },
      [](const PolicySpec& spec, harness::RunContext& context) {
        PolicyOutcome out = RunPolicy(spec.policy);
        context.Metric("row_stddev_W", out.row_power_stddev);
        context.Metric("headroom_W", out.headroom_watts);
        context.Metric("placed", static_cast<double>(out.jobs_placed));
        context.Metric("queued", static_cast<double>(out.queue_length));
        return out;
      },
      args.runner);

  bench::Section("24 h at ~45% fleet CPU, 4 rows x 80 servers");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const PolicyOutcome& random = grid.values[0];
  const PolicyOutcome& packed = grid.values[1];

  bench::Section("per-row mean / p95 power (W)");
  std::printf("%6s %12s %12s %12s %12s\n", "row", "rand_mean", "rand_p95",
              "pack_mean", "pack_p95");
  for (int r = 0; r < kRows; ++r) {
    auto i = static_cast<size_t>(r);
    std::printf("%6d %12.0f %12.0f %12.0f %12.0f\n", r, random.row_mean[i],
                random.row_p95[i], packed.row_mean[i], packed.row_p95[i]);
  }

  std::printf("largest single-row headroom: random %.0f W, concentrate "
              "%.0f W\n",
              random.max_row_headroom, packed.max_row_headroom);
  std::printf("coldest row temporal stddev: random %.0f W, concentrate "
              "%.0f W\n",
              random.coldest_row_stddev, packed.coldest_row_stddev);

  bench::Section("shape checks (the future-work hypothesis)");
  bench::ShapeCheck(packed.row_power_stddev > 2.0 * random.row_power_stddev,
                    "concentration raises cross-row power variance");
  bench::ShapeCheck(packed.max_row_headroom > 1.8 * random.max_row_headroom,
                    "the headroom consolidates into one large block "
                    "(cultivable by whole racks, not server slivers)");
  bench::ShapeCheck(
      packed.coldest_row_stddev < 0.7 * random.coldest_row_stddev,
      "the cold row is temporally stable (tiny safety margin suffices)");
  bench::ShapeCheck(
      packed.headroom_watts > 0.85 * random.headroom_watts,
      "total slack is roughly conserved (consolidated, not created) — a "
      "finding of this reproduction");
  bench::ShapeCheck(packed.jobs_placed >= random.jobs_placed * 99 / 100 &&
                        packed.queue_length <= random.queue_length + 10,
                    "the policy is work-conserving (no throughput loss)");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
