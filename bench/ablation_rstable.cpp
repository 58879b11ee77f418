// Ablation: the r_stable hysteresis parameter (§3.5, Algorithm 1).
//
// r_stable keeps a frozen server in the candidate pool while its power
// remains above r_stable times the weakest member of the target set,
// preventing freeze/unfreeze churn as frozen servers drain. The paper finds
// "the value of r_stable does not affect the performance much" and uses 0.8.
// Expected shape: control quality (violations, throughput) is flat across
// r_stable, while churn (freeze+unfreeze operations) falls as the band
// widens (smaller r_stable = wider band = stickier frozen set).
//
// The five r_stable arms are independent day-long simulations and run in
// parallel through the scenario harness.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160424;

struct RStableResult {
  double r_stable = 0.0;
  int violations = 0;
  double u_mean = 0.0;
  double r_thru = 0.0;
  uint64_t churn_ops = 0;
};

int Main(const harness::HarnessArgs& args) {
  bench::Header("Ablation: r_stable hysteresis",
                "churn and control quality across the stability band",
                kSeed);

  const std::vector<double> r_stables{0.5, 0.7, 0.8, 0.9, 1.0};
  auto grid = harness::RunGrid(
      r_stables,
      [](double r_stable, size_t) {
        char name[32];
        std::snprintf(name, sizeof(name), "r_stable=%.2f", r_stable);
        return harness::GridMeta{name, kSeed};
      },
      [](double r_stable, harness::RunContext& context) {
        ExperimentConfig config =
            bench::PaperExperimentConfig(kSeed, /*target_power=*/1.0, 0.25);
        config.controller.effect = FreezeEffectModel(0.013);
        config.controller.et = EtEstimator::Constant(0.02);
        config.controller.r_stable = r_stable;
        config.workload.arrivals.ar_sigma = 0.015;
        // The churn counters live on the controller, so run the experiment
        // in place instead of through RunExperimentToResult.
        ControlledExperiment experiment(config);
        ExperimentResult result = experiment.Run();
        RStableResult out;
        out.r_stable = r_stable;
        out.violations = result.experiment.violations;
        out.u_mean = result.experiment.u_mean;
        out.r_thru = std::min(result.throughput_ratio, 1.0);
        out.churn_ops = experiment.controller()->freeze_ops() +
                        experiment.controller()->unfreeze_ops();
        context.Metric("r_stable", out.r_stable);
        context.Metric("violations", out.violations);
        context.Metric("u_mean", out.u_mean);
        context.Metric("r_thru", out.r_thru);
        context.Metric("churn_ops", static_cast<double>(out.churn_ops));
        return out;
      },
      args.runner);

  bench::Section("24 h heavy runs at rO=0.25 (paper uses r_stable = 0.8)");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const std::vector<RStableResult>& results = grid.values;

  bench::Section("shape checks vs. paper");
  int min_viol = results[0].violations;
  int max_viol = results[0].violations;
  double min_rt = results[0].r_thru;
  double max_rt = results[0].r_thru;
  for (const RStableResult& r : results) {
    min_viol = std::min(min_viol, r.violations);
    max_viol = std::max(max_viol, r.violations);
    min_rt = std::min(min_rt, r.r_thru);
    max_rt = std::max(max_rt, r.r_thru);
  }
  bench::ShapeCheck(max_viol - min_viol < 60,
                    "violation count is insensitive to r_stable");
  bench::ShapeCheck(max_rt - min_rt < 0.08,
                    "throughput is insensitive to r_stable");
  bench::ShapeCheck(results.front().churn_ops <= results.back().churn_ops,
                    "a wider hysteresis band (small r_stable) churns less "
                    "than no band (r_stable = 1.0)");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
