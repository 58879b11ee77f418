// Figure 11: p99.9 latency of redis-benchmark operations under hardware
// power capping vs. under Ampere's control, on a row over-provisioned at
// rO = 0.25. Also reproduces the §4.3 statistic that without Ampere a large
// fraction of servers spends a significant fraction of time power-capped.
//
// Paper's shape: power capping roughly DOUBLES the p99.9 latency of every
// Redis operation (DVFS slows the CPU-bound single-threaded server and
// queueing compounds it), while Ampere leaves running jobs untouched.
//
// Setup: two rows share one scheduler. Row 0 hosts a 6-server Redis pool
// (reserved) plus batch servers and has its budget scaled down per Eq. (16);
// row 1 is uncontrolled overflow capacity, playing the role of "the rest of
// the fleet". The capping arm enforces row 0's budget with RAPL; the Ampere
// arm holds the same budget by freezing row-0 batch servers, diverting work
// to row 1.

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/controller.h"
#include "src/workload/batch_workload.h"
#include "src/workload/interactive_service.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160411;
constexpr double kRo = 0.25;
constexpr int kRedisServers = 6;

struct ArmResult {
  std::vector<double> p999_ms;        // Per RedisOp.
  double capped_fraction_time = 0.0;  // Fraction of window row 0 was capped.
  double mean_row0_power = 0.0;
  uint64_t requests = 0;
};

ArmResult RunArm(bool use_ampere) {
  Rng rng(kSeed);  // Same seed for both arms: identical workload.
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = 2;
  topo.racks_per_row = 4;
  topo.servers_per_rack = 15;  // 60 per row.
  // Both arms keep RAPL enabled at the scaled budget — the paper always
  // leaves hardware capping on as a safety net (§2.1). The difference is
  // whether Ampere proactively keeps the row away from the cap.
  topo.capping_enabled = true;
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitorConfig mc;
  PowerMonitor monitor(&dc, &db, mc, rng.Fork(2));

  double row0_budget = 60 * 250.0 / (1.0 + kRo);
  dc.SetRowCappingBudget(RowId(0), row0_budget);

  // Redis pool: the first kRedisServers of row 0, reserved.
  std::vector<ServerId> redis;
  for (int32_t s = 0; s < kRedisServers; ++s) {
    redis.push_back(ServerId(s));
    dc.SetReserved(ServerId(s), true);
  }
  std::vector<ServerId> row0_batch;
  for (ServerId id : dc.servers_in_row(RowId(0))) {
    if (!dc.server(id).reserved()) {
      row0_batch.push_back(id);
    }
  }
  monitor.RegisterGroup("row0", {dc.servers_in_row(RowId(0)).begin(),
                                 dc.servers_in_row(RowId(0)).end()});

  InteractiveServiceParams redis_params;
  redis_params.servers = redis;
  // ~44 % busy at full clock: enough headroom normally, but DVFS throttling
  // pushes the single-threaded instance deep into queueing territory.
  redis_params.requests_per_sec_per_server = 2500.0;
  InteractiveService service(redis_params, &sim, &dc, rng.Fork(3));

  JobIdAllocator ids;
  BatchWorkloadParams batch;
  batch.arrivals.base_rate_per_min = 56.0;  // Row 0 demand ~6% over budget.
  BatchWorkload workload(batch, &sim, &scheduler, &ids, rng.Fork(4));

  std::unique_ptr<AmpereController> controller;
  if (use_ampere) {
    AmpereControllerConfig config;
    config.effect = FreezeEffectModel(0.013);  // Fig. 5 calibration value.
    // Generous margin: act well before the cap would engage.
    config.et = EtEstimator::Constant(0.04);
    controller = std::make_unique<AmpereController>(&scheduler, &monitor,
                                                    config);
    controller->AddDomain({"row0", row0_batch, row0_budget});
  }

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  if (controller != nullptr) {
    controller->Start(&sim, SimTime::Minutes(1) + SimTime::Seconds(1));
  }
  // Warm up 90 min, then measure a 15-minute benchmark window.
  SimTime warm = SimTime::Minutes(90);
  SimTime window_end = warm + SimTime::Minutes(15);
  service.Run(warm - SimTime::Minutes(5), window_end, warm);
  sim.RunUntil(warm);
  SimTime capped_before = dc.row_capped_time(RowId(0));
  SimTime capped_after;
  double power_acc = 0.0;
  int power_samples = 0;
  sim.SchedulePeriodic(warm + SimTime::Seconds(2), SimTime::Minutes(1),
                       [&](SimTime t) {
                         if (t < window_end) {
                           power_acc += monitor.LatestGroupWatts("row0");
                           ++power_samples;
                         }
                       });
  sim.ScheduleAt(window_end,
                 [&] { capped_after = dc.row_capped_time(RowId(0)); });
  sim.RunUntil(window_end + SimTime::Minutes(1));

  ArmResult result;
  for (int op = 0; op < kNumRedisOps; ++op) {
    result.p999_ms.push_back(
        service.latency_histogram(static_cast<RedisOp>(op)).Quantile(0.999));
  }
  result.capped_fraction_time =
      (capped_after - capped_before).seconds() /
      (window_end - warm).seconds();
  result.mean_row0_power =
      power_samples > 0 ? power_acc / power_samples / row0_budget : 0.0;
  result.requests = service.requests_served();
  return result;
}

void Main() {
  bench::Header("Figure 11",
                "redis p99.9 latency: power capping vs Ampere (rO=0.25)",
                kSeed);

  ArmResult capping = RunArm(/*use_ampere=*/false);
  ArmResult ampere = RunArm(/*use_ampere=*/true);

  bench::Section("p99.9 latency per operation (ms, and capping/Ampere ratio)");
  std::printf("%12s %12s %12s %8s\n", "op", "capping", "ampere", "ratio");
  double worst_ratio = 10.0;
  for (int op = 0; op < kNumRedisOps; ++op) {
    double ratio = capping.p999_ms[static_cast<size_t>(op)] /
                   ampere.p999_ms[static_cast<size_t>(op)];
    worst_ratio = std::min(worst_ratio, ratio);
    std::printf("%12s %12.3f %12.3f %8.2f\n",
                RedisOpName(static_cast<RedisOp>(op)),
                capping.p999_ms[static_cast<size_t>(op)],
                ampere.p999_ms[static_cast<size_t>(op)], ratio);
  }

  bench::Section("row-0 state during the benchmark window");
  std::printf("%12s %18s %18s %12s\n", "arm", "capped_time_frac",
              "mean_power/budget", "requests");
  std::printf("%12s %18.3f %18.3f %12llu\n", "capping",
              capping.capped_fraction_time, capping.mean_row0_power,
              static_cast<unsigned long long>(capping.requests));
  std::printf("%12s %18.3f %18.3f %12llu\n", "ampere",
              ampere.capped_fraction_time, ampere.mean_row0_power,
              static_cast<unsigned long long>(ampere.requests));

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(worst_ratio > 1.4,
                    "capping inflates p99.9 of every op (paper: ~2x)");
  bench::ShapeCheck(capping.capped_fraction_time > 0.3,
                    "without Ampere, servers are capped a large fraction of "
                    "time (paper: 54% of servers ~15% of time)");
  bench::ShapeCheck(ampere.capped_fraction_time < 0.05,
                    "Ampere practically never triggers the capping safety net");
  bench::ShapeCheck(ampere.mean_row0_power <= 1.02,
                    "Ampere holds the row near/below its budget");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
