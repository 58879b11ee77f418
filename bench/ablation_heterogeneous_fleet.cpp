// Ablation: Ampere on a mixed-generation row.
//
// Production rows accumulate server generations; the paper's experiments
// use a homogeneous row, but nothing in Algorithm 1 assumes homogeneity —
// it ranks servers by measured watts. This bench runs the controller on a
// row whose racks alternate between power-hungry old boxes (300 W rated,
// 70 % idle) and efficient new ones (200 W rated, 55 % idle), at the same
// demand level as a homogeneous control run.
//
// Expected shape: control quality carries over unchanged, and the
// highest-power selection concentrates freezes on the old generation far
// beyond its population share — watt-ranked freezing is generation-aware
// for free, draining the most power per frozen scheduling slot.
//
// The homogeneous and mixed arms are independent day-long simulations and
// run in parallel through the scenario harness.

#include <array>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/controller.h"
#include "src/workload/batch_workload.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160504;

struct MixResult {
  int violations = 0;
  double u_mean = 0.0;
  double old_gen_freeze_share = 0.0;  // Of frozen servers, fraction old-gen.
};

MixResult RunRow(bool mixed) {
  Rng rng(kSeed);
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = 1;
  topo.racks_per_row = 8;
  topo.servers_per_rack = 10;  // 80 servers.
  if (mixed) {
    PowerModelParams old_gen;
    old_gen.rated_watts = 300.0;
    old_gen.idle_fraction = 0.70;
    PowerModelParams new_gen;
    new_gen.rated_watts = 200.0;
    new_gen.idle_fraction = 0.55;
    topo.server_generations = {old_gen, new_gen};
  }
  DataCenter dc(topo, &sim);
  // Same rO-scaled budget structure either way: rated / 1.25.
  double budget = dc.row_budget_watts(RowId(0)) / 1.25;

  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, rng.Fork(2));
  std::vector<ServerId> all{dc.servers_in_row(RowId(0)).begin(),
                            dc.servers_in_row(RowId(0)).end()};
  monitor.RegisterGroup("row", all);

  JobIdAllocator ids;
  BatchWorkloadParams params;
  // Drive demand to ~0.97 of the scaled budget: utilization such that
  // idle + util * dynamic = budget. Compute from aggregate idle/dynamic.
  double idle_sum = 0.0;
  double dyn_sum = 0.0;
  for (ServerId id : all) {
    idle_sum += dc.server(id).idle_watts();
    dyn_sum += dc.server(id).rated_watts() - dc.server(id).idle_watts();
  }
  double util = (0.97 * budget - idle_sum) / dyn_sum;
  params.arrivals.base_rate_per_min = util * 80 * 16.0 / (9.1 * 2.0);
  params.arrivals.ar_sigma = 0.015;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.013);
  config.et = EtEstimator::Constant(0.02);
  AmpereController controller(&scheduler, &monitor, config);
  controller.AddDomain({"row", all, budget});

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  controller.Start(&sim, SimTime::Hours(2) + SimTime::Seconds(1));

  struct Acc {
    int violations = 0;
    double u_sum = 0.0;
    int samples = 0;
    int64_t frozen_old = 0;
    int64_t frozen_total = 0;
  };
  Acc acc;
  sim.SchedulePeriodic(
      SimTime::Hours(2) + SimTime::Seconds(2), SimTime::Minutes(1),
      [&](SimTime) {
        ++acc.samples;
        if (monitor.LatestGroupWatts("row") > budget) {
          ++acc.violations;
        }
        acc.u_sum += controller.freeze_ratio(0);
        for (ServerId id : all) {
          if (dc.server(id).frozen()) {
            ++acc.frozen_total;
            if (dc.server(id).rated_watts() > 250.0) {
              ++acc.frozen_old;
            }
          }
        }
      });
  sim.RunUntil(SimTime::Hours(2 + 24));

  MixResult result;
  result.violations = acc.violations;
  result.u_mean = acc.u_sum / acc.samples;
  result.old_gen_freeze_share =
      acc.frozen_total > 0 ? static_cast<double>(acc.frozen_old) /
                                 static_cast<double>(acc.frozen_total)
                           : 0.0;
  return result;
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Ablation: heterogeneous fleet",
                "Algorithm 1 on a mixed-generation row", kSeed);

  const std::array<bool, 2> arms{false, true};  // homogeneous, mixed.
  auto grid = harness::RunGrid(
      arms,
      [](bool is_mixed, size_t) {
        return harness::GridMeta{is_mixed ? "mixed" : "homogeneous", kSeed};
      },
      [](bool is_mixed, harness::RunContext& context) {
        MixResult result = RunRow(is_mixed);
        context.Metric("violations", result.violations);
        context.Metric("u_mean", result.u_mean);
        if (is_mixed) {
          context.Metric("old_gen_freeze_share",
                         result.old_gen_freeze_share);
        }
        return result;
      },
      args.runner);

  bench::Section("24 h at ~0.97 of the rO=0.25 budget");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const MixResult& homogeneous = grid.values[0];
  const MixResult& mixed = grid.values[1];
  std::printf("(old generation is 50%% of the population)\n");

  bench::Section("shape checks");
  bench::ShapeCheck(mixed.violations <= homogeneous.violations * 3 + 30,
                    "control quality carries over to mixed generations");
  bench::ShapeCheck(mixed.old_gen_freeze_share > 0.65,
                    "watt-ranked freezing concentrates on the power-hungry "
                    "generation (generation-aware for free)");
  bench::ShapeCheck(mixed.u_mean < 0.5,
                    "the mixed row does not need saturated control");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
