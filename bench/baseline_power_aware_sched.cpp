// Baseline: power-aware scheduling integrated into the scheduler (§3.1,
// §5.2).
//
// "One straightforward design would be making the scheduler power
// distribution aware. However it is not practical mainly due to the
// complexity of incorporating the information into different scheduling
// policies." This bench implements that rejected design (the
// kPowerAwareSpread placement policy: prefer the coldest row, refuse rows
// above a safety ceiling) and compares it with Ampere's loose coupling on
// the same over-provisioned fleet:
//   * no-control       — violations happen freely (the reference);
//   * power-aware sched — protection from inside the scheduler;
//   * Ampere            — the same protection from OUTSIDE, via two APIs.
// Expected shape: both mechanisms eliminate most violations with similar
// throughput — quantitative support for the paper's claim that the simple
// freeze/unfreeze interface gives up essentially nothing.
//
// The three arms are independent day-long simulations and run in parallel
// through the scenario harness.

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/controller.h"
#include "src/workload/batch_workload.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160502;
constexpr int kRows = 4;
constexpr int kServersPerRow = 60;
constexpr double kRo = 0.17;

enum class Arm { kNoControl, kPowerAwareScheduler, kAmpere };

struct ArmResult {
  int violations = 0;
  uint64_t completed = 0;
  double p_max = 0.0;
};

ArmResult RunArm(Arm arm) {
  Rng rng(kSeed);
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = kRows;
  topo.racks_per_row = 4;
  topo.servers_per_rack = kServersPerRow / 4;
  double row_budget = kServersPerRow * 250.0 / (1.0 + kRo);
  topo.row_budget_watts = row_budget;  // Scaled budgets per Eq. (16).
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;

  SchedulerConfig sched_config;
  if (arm == Arm::kPowerAwareScheduler) {
    sched_config.policy = PlacementPolicy::kPowerAwareSpread;
    sched_config.concentrate_power_ceiling = 0.97;
  }
  Scheduler scheduler(&dc, sched_config, rng.Fork(1));
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, rng.Fork(2));
  for (int32_t r = 0; r < kRows; ++r) {
    monitor.RegisterGroup("row" + std::to_string(r),
                          {dc.servers_in_row(RowId(r)).begin(),
                           dc.servers_in_row(RowId(r)).end()});
  }

  // Heterogeneous demand — the precondition for ANY cross-row mechanism:
  // four row-pinned "products" at staggered levels plus a large flexible
  // stream that the mechanism can steer. Uncontrolled, the flexible share
  // spreads uniformly and pushes the hottest row over its budget.
  JobIdAllocator ids;
  std::vector<std::unique_ptr<BatchWorkload>> workloads;
  const double kAffineRates[kRows] = {17.9, 12.3, 6.6, 1.6};
  for (int32_t r = 0; r < kRows; ++r) {
    BatchWorkloadParams params;
    params.arrivals.base_rate_per_min = kAffineRates[r];
    params.arrivals.ar_sigma = 0.015;
    params.row_affinity = RowId(r);
    workloads.push_back(std::make_unique<BatchWorkload>(
        params, &sim, &scheduler, &ids, rng.Fork(10 + static_cast<uint64_t>(r))));
  }
  BatchWorkloadParams flexible;
  flexible.arrivals.base_rate_per_min = 60.0;
  flexible.arrivals.ar_sigma = 0.015;
  workloads.push_back(std::make_unique<BatchWorkload>(
      flexible, &sim, &scheduler, &ids, rng.Fork(20)));

  std::unique_ptr<AmpereController> controller;
  if (arm == Arm::kAmpere) {
    AmpereControllerConfig config;
    config.effect = FreezeEffectModel(0.013);
    config.et = EtEstimator::Constant(0.02);
    controller = std::make_unique<AmpereController>(&scheduler, &monitor,
                                                    config);
    for (int32_t r = 0; r < kRows; ++r) {
      controller->AddDomain({"row" + std::to_string(r),
                             {dc.servers_in_row(RowId(r)).begin(),
                              dc.servers_in_row(RowId(r)).end()},
                             row_budget});
    }
    controller->Start(&sim, SimTime::Minutes(1) + SimTime::Seconds(1));
  }

  for (auto& workload : workloads) {
    workload->Start(SimTime());
  }
  monitor.Start(SimTime::Minutes(1));

  struct Acc {
    int violations = 0;
    double p_max = 0.0;
    uint64_t completed_at_start = 0;
  };
  Acc acc;
  sim.ScheduleAt(SimTime::Hours(2), [&] {
    acc.completed_at_start = scheduler.jobs_completed();
  });
  sim.SchedulePeriodic(
      SimTime::Hours(2) + SimTime::Seconds(2), SimTime::Minutes(1),
      [&](SimTime) {
        for (int32_t r = 0; r < kRows; ++r) {
          double watts = monitor.LatestGroupWatts("row" + std::to_string(r));
          double p = watts / row_budget;
          acc.p_max = std::max(acc.p_max, p);
          if (p > 1.0) {
            ++acc.violations;
          }
        }
      });
  sim.RunUntil(SimTime::Hours(2 + 24));

  ArmResult result;
  result.violations = acc.violations;
  result.completed = scheduler.jobs_completed() - acc.completed_at_start;
  result.p_max = acc.p_max;
  return result;
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Baseline: power-aware scheduler vs Ampere (§5.2)",
                "the same protection from inside vs outside the scheduler",
                kSeed);

  struct ArmSpec {
    const char* name;
    Arm arm;
  };
  const std::vector<ArmSpec> arms = {
      {"no-control", Arm::kNoControl},
      {"power-aware-sched", Arm::kPowerAwareScheduler},
      {"ampere", Arm::kAmpere},
  };
  auto grid = harness::RunGrid(
      arms,
      [](const ArmSpec& spec, size_t) {
        return harness::GridMeta{spec.name, kSeed};
      },
      [](const ArmSpec& spec, harness::RunContext& context) {
        ArmResult r = RunArm(spec.arm);
        context.Metric("violations", r.violations);
        context.Metric("completed", static_cast<double>(r.completed));
        context.Metric("P_max", r.p_max);
        return r;
      },
      args.runner);

  bench::Section("24 h, 4 rows x 60 servers at rO=0.17, flexible stream steerable");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const ArmResult& none = grid.values[0];
  const ArmResult& aware = grid.values[1];
  const ArmResult& ampere = grid.values[2];

  bench::Section("shape checks (the loose-coupling claim)");
  bench::ShapeCheck(none.violations > 100,
                    "without any mechanism, the over-provisioned fleet "
                    "violates routinely");
  bench::ShapeCheck(aware.violations < none.violations / 3,
                    "integrating power into the scheduler works...");
  bench::ShapeCheck(ampere.violations < none.violations / 3,
                    "...and Ampere protects comparably from outside");
  double thru_ratio = static_cast<double>(ampere.completed) /
                      static_cast<double>(aware.completed);
  bench::ShapeCheck(thru_ratio > 0.97 && thru_ratio < 1.03,
                    "the two mechanisms cost about the same throughput — "
                    "the simple freeze/unfreeze interface gives up nothing");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
