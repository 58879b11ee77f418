// Ablation: the 50 % freezing-ratio cap (§4.2 + future work).
//
// The paper limits the freezing ratio to 50 % "considering some operational
// maintenance issues of the scheduler"; their single heavy-load violation
// was caused by that cap saturating, and removing the limitation is listed
// as future work. This bench sweeps the cap under heavy demand. Expected
// shape: violations fall monotonically as the cap rises (more control
// authority), at the price of deeper throughput suppression while control
// is active.
//
// The four cap arms are independent day-long simulations and run in
// parallel through the scenario harness.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160425;

struct CapResult {
  double max_ratio = 0.0;
  int violations = 0;
  double u_mean = 0.0;
  double u_max = 0.0;
  double r_thru = 0.0;
};

int Main(const harness::HarnessArgs& args) {
  bench::Header("Ablation: max freezing ratio",
                "lifting the paper's 50% operational cap under heavy load",
                kSeed);

  const std::vector<double> caps{0.3, 0.5, 0.7, 0.9};
  auto grid = harness::RunGrid(
      caps,
      [](double cap, size_t) {
        char name[32];
        std::snprintf(name, sizeof(name), "cap=%.1f", cap);
        return harness::GridMeta{name, kSeed};
      },
      [](double cap, harness::RunContext& context) {
        ExperimentConfig config =
            bench::PaperExperimentConfig(kSeed, /*target_power=*/1.02, 0.25);
        config.controller.effect = FreezeEffectModel(0.013);
        config.controller.et = EtEstimator::Constant(0.02);
        config.controller.max_freeze_ratio = cap;
        config.workload.arrivals.ar_sigma = 0.015;
        ExperimentResult result = RunExperimentToResult(config);
        CapResult out;
        out.max_ratio = cap;
        out.violations = result.experiment.violations;
        out.u_mean = result.experiment.u_mean;
        out.u_max = result.experiment.u_max;
        out.r_thru = std::min(result.throughput_ratio, 1.0);
        context.Metric("cap", out.max_ratio);
        context.Metric("violations", out.violations);
        context.Metric("u_mean", out.u_mean);
        context.Metric("u_max", out.u_max);
        context.Metric("r_thru", out.r_thru);
        return out;
      },
      args.runner);

  bench::Section("24 h runs at rO=0.25, demand ~1.02 of budget");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const std::vector<CapResult>& results = grid.values;

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(results[0].violations > results[1].violations,
                    "a tighter cap than the paper's 0.5 loses protection");
  bench::ShapeCheck(results[3].violations <= results[1].violations,
                    "lifting the cap (future work) removes the residual "
                    "violations the paper attributes to it");
  bool authority_used = true;
  for (const CapResult& r : results) {
    if (r.u_max < r.max_ratio - 0.05) {
      authority_used = false;
    }
  }
  bench::ShapeCheck(authority_used,
                    "under heavy load the controller saturates whatever cap "
                    "it is given");
  bench::ShapeCheck(results[3].r_thru <= results[0].r_thru + 0.02,
                    "extra protection is paid for with throughput");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
