// Built-in scenario sets: smoke-sized grids over the core entry points.
//
// These give the harness real, fast content out of the box — the
// determinism tests and the `scenario_sweep` example run them by name. Both
// sets are deliberately small (tens of simulated minutes on tens of
// servers) so a full grid finishes in seconds even single-threaded; the
// paper-scale grids live in bench/ where they belong.

#include "src/harness/scenario.h"

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/fleet.h"

namespace ampere {
namespace harness {
namespace {

ExperimentConfig SmokeExperimentConfig(uint64_t seed, double target_power,
                                       double ro) {
  ExperimentConfig config;
  config.seed = seed;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 14;  // 42 servers.
  config.over_provision_ratio = ro;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, target_power, ro);
  config.warmup = SimTime::Minutes(20);
  config.duration = SimTime::Hours(2);
  config.controller.et = EtEstimator::Constant(0.02);
  return config;
}

void ReportExperiment(const ExperimentResult& result, RunContext& context) {
  context.Metric("p_mean", result.experiment.p_mean);
  context.Metric("p_max", result.experiment.p_max);
  context.Metric("u_mean", result.experiment.u_mean);
  context.Metric("violations", result.experiment.violations);
  context.Metric("ctl_violations", result.control.violations);
  context.Metric("r_thru", result.throughput_ratio);
  context.Metric("g_tpw", result.gain_tpw);
  context.Metric("jobs_completed",
                 static_cast<double>(result.jobs_completed));
}

std::vector<Scenario> ExperimentSmokeGrid() {
  struct Spec {
    double ro;
    double target_power;
  };
  const std::vector<Spec> specs = {
      {0.25, 0.92}, {0.25, 0.99}, {0.17, 0.90}, {0.17, 0.97}};
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Spec spec = specs[i];
    uint64_t seed = 9000 + i;
    char name[64];
    std::snprintf(name, sizeof(name), "ro=%.2f target=%.2f", spec.ro,
                  spec.target_power);
    scenarios.push_back(Scenario{
        name, seed, [spec, seed](RunContext& context) {
          ExperimentConfig config =
              SmokeExperimentConfig(seed, spec.target_power, spec.ro);
          ExperimentResult result = RunExperimentToResult(config);
          ReportExperiment(result, context);
        }});
  }
  return scenarios;
}

std::vector<Scenario> FleetSmokeGrid() {
  const std::vector<double> loads = {0.75, 0.85};
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < loads.size(); ++i) {
    const double load = loads[i];
    uint64_t seed = 7000 + i;
    char name[64];
    std::snprintf(name, sizeof(name), "fleet load=%.2f", load);
    scenarios.push_back(Scenario{
        name, seed, [load, seed](RunContext& context) {
          FleetConfig config;
          config.seed = seed;
          config.topology.num_rows = 2;
          config.topology.racks_per_row = 2;
          config.topology.servers_per_rack = 10;
          RowProduct product;
          product.target_power = load;
          config.products = {product};
          FleetResult result =
              RunFleetToResult(config, SimTime::Hours(3));
          for (size_t r = 0; r < result.rows.size(); ++r) {
            std::string prefix = "row" + std::to_string(r) + "_";
            context.Metric(prefix + "p_mean", result.rows[r].p_mean);
            context.Metric(prefix + "p_max", result.rows[r].p_max);
          }
          context.Metric("dc_mean_watts", result.dc_mean_watts);
          context.Metric("jobs_completed",
                         static_cast<double>(result.jobs_completed));
        }});
  }
  return scenarios;
}

}  // namespace

std::span<const ScenarioSet> BuiltinScenarioSets() {
  static constexpr ScenarioSet kSets[] = {
      {"experiment-smoke",
       "4-point rO x load grid of short controlled experiments (42 servers, "
       "2 h + 20 min warmup)",
       ExperimentSmokeGrid},
      {"fleet-smoke",
       "2-point load grid of short 2-row fleet runs (40 servers, 3 h)",
       FleetSmokeGrid},
  };
  return kSets;
}

}  // namespace harness
}  // namespace ampere
