// Ablation: row-level vs rack-level power control (§2.2, design choice 1).
//
// The paper manages power at the row level because unused power is strictly
// larger there than at rack level — statistical multiplexing smooths the
// aggregate, while individual racks spike independently. This bench runs the
// same over-provisioned workload twice: once with one row-level control
// domain, once with ten rack-level domains splitting the same total budget.
// Expected shape: rack-level control freezes more servers (chasing local
// spikes the row never sees) for no less violation exposure.
//
// The two arms are independent hand-assembled simulations and run in
// parallel through the scenario harness.

#include <array>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/controller.h"
#include "src/workload/batch_workload.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160421;

struct LevelResult {
  double mean_freeze_ratio = 0.0;   // Across all domains and minutes.
  int violations = 0;               // Domain-budget violations, all domains.
  double mean_unused_watts = 0.0;   // Budget minus draw, summed over domains
                                    // (floored at 0 per domain).
  uint64_t freeze_ops = 0;
};

LevelResult RunLevel(bool rack_level) {
  Rng rng(kSeed);
  Simulation sim;
  TopologyConfig topo = bench::PaperRowTopology();
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitorConfig mc;
  mc.record_racks = true;
  PowerMonitor monitor(&dc, &db, mc, rng.Fork(2));

  double total_budget = 420 * 250.0 / 1.25;  // rO = 0.25.

  std::vector<ControlDomain> domains;
  if (rack_level) {
    for (int32_t k = 0; k < dc.num_racks(); ++k) {
      ControlDomain domain;
      domain.group = "rack" + std::to_string(k);
      domain.servers = {dc.servers_in_rack(RackId(k)).begin(),
                        dc.servers_in_rack(RackId(k)).end()};
      domain.budget_watts = total_budget / dc.num_racks();
      monitor.RegisterGroup(domain.group, domain.servers);
      domains.push_back(std::move(domain));
    }
  } else {
    ControlDomain domain;
    domain.group = "row";
    domain.servers = {dc.servers_in_row(RowId(0)).begin(),
                      dc.servers_in_row(RowId(0)).end()};
    domain.budget_watts = total_budget;
    monitor.RegisterGroup(domain.group, domain.servers);
    domains.push_back(std::move(domain));
  }

  JobIdAllocator ids;
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      topo, params, /*target_normalized_power=*/0.96, /*ro=*/0.25);
  params.arrivals.ar_sigma = 0.02;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.013);
  config.et = EtEstimator::Constant(0.02);
  AmpereController controller(&scheduler, &monitor, config);
  for (ControlDomain& domain : domains) {
    controller.AddDomain(domain);
  }

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  controller.Start(&sim, SimTime::Hours(2) + SimTime::Seconds(1));

  struct Acc {
    double freeze_sum = 0.0;
    int freeze_samples = 0;
    int violations = 0;
    double unused_sum = 0.0;
    int minutes = 0;
  };
  Acc acc;
  size_t n_domains = domains.size();
  sim.SchedulePeriodic(
      SimTime::Hours(2) + SimTime::Seconds(2), SimTime::Minutes(1),
      [&](SimTime) {
        ++acc.minutes;
        for (size_t d = 0; d < n_domains; ++d) {
          double watts = monitor.LatestGroupWatts(domains[d].group);
          acc.freeze_sum += controller.freeze_ratio(d);
          ++acc.freeze_samples;
          if (watts > domains[d].budget_watts) {
            ++acc.violations;
          }
          acc.unused_sum += std::max(0.0, domains[d].budget_watts - watts);
        }
      });
  sim.RunUntil(SimTime::Hours(2 + 24));

  LevelResult result;
  result.mean_freeze_ratio = acc.freeze_sum / acc.freeze_samples;
  result.violations = acc.violations;
  result.mean_unused_watts = acc.unused_sum / acc.minutes;
  result.freeze_ops = controller.freeze_ops();
  return result;
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Ablation: control level",
                "row-level vs rack-level domains, same total budget", kSeed);

  const std::array<bool, 2> arms{false, true};  // row, rack.
  auto grid = harness::RunGrid(
      arms,
      [](bool rack_level, size_t) {
        return harness::GridMeta{rack_level ? "rack" : "row", kSeed};
      },
      [](bool rack_level, harness::RunContext& context) {
        LevelResult result = RunLevel(rack_level);
        context.Metric("u_mean", result.mean_freeze_ratio);
        context.Metric("violations", result.violations);
        context.Metric("unused_W", result.mean_unused_watts);
        context.Metric("freeze_ops", static_cast<double>(result.freeze_ops));
        return result;
      },
      args.runner);

  bench::Section("24 h controlled run at rO=0.25, demand ~0.96 of budget");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const LevelResult& row = grid.values[0];
  const LevelResult& rack = grid.values[1];

  bench::Section("shape checks vs. paper (§2.2 rationale)");
  bench::ShapeCheck(rack.mean_freeze_ratio > row.mean_freeze_ratio,
                    "rack-level control freezes more (chases local spikes)");
  bench::ShapeCheck(rack.mean_unused_watts > row.mean_unused_watts,
                    "rack-level partitioning strands more unused power");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
