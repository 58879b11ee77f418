// Extension: receding-horizon planning depth (§3.6 + Lemma 3.1, live).
//
// The paper formulates the general horizon-N Power Control Problem, then
// proves (Lemma 3.1) that with the linear effect model the iterated
// horizon-1 closed form is already optimal, so planning deeper buys
// nothing. The unit tests verify the lemma against exhaustive search on
// random instances; this bench verifies it END TO END: the same 24-hour
// closed-loop experiment is run with planning horizons 1, 4, and 16, and
// with a constant E forecast the control trajectories must coincide
// minute for minute.
//
// The three horizon runs are independent simulations and execute in
// parallel through the scenario harness; determinism across job counts is
// exactly what makes the minute-for-minute comparison meaningful.

#include <cmath>
#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160428;

int Main(const harness::HarnessArgs& args) {
  bench::Header("Extension: RHC planning horizon",
                "Lemma 3.1 verified in the live closed loop", kSeed);

  const std::vector<int> horizons{1, 4, 16};
  auto grid = harness::RunGrid(
      horizons,
      [](int horizon, size_t) {
        char name[32];
        std::snprintf(name, sizeof(name), "horizon=%d", horizon);
        return harness::GridMeta{name, kSeed};
      },
      [](int horizon, harness::RunContext& context) {
        ExperimentConfig config =
            bench::PaperExperimentConfig(kSeed, /*target_power=*/1.0, 0.25);
        config.controller.effect = FreezeEffectModel(0.013);
        config.controller.et = EtEstimator::Constant(0.02);
        config.controller.horizon = horizon;
        config.workload.arrivals.ar_sigma = 0.015;
        ExperimentResult result = RunExperimentToResult(config);
        context.Metric("horizon", horizon);
        context.Metric("violations", result.experiment.violations);
        context.Metric("u_mean", result.experiment.u_mean);
        context.Metric("P_max", result.experiment.p_max);
        context.Metric("r_thru", std::min(result.throughput_ratio, 1.0));
        return result;
      },
      args.runner);

  bench::Section("24 h heavy runs at rO=0.25 per planning horizon");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const std::vector<ExperimentResult>& results = grid.values;

  // Minute-for-minute trajectory comparison against horizon 1.
  size_t mismatches_h4 = 0;
  size_t mismatches_h16 = 0;
  const auto& base = results[0].experiment.minutes;
  for (size_t m = 0; m < base.size(); ++m) {
    if (std::abs(results[1].experiment.minutes[m].freeze_ratio -
                 base[m].freeze_ratio) > 1e-12) {
      ++mismatches_h4;
    }
    if (std::abs(results[2].experiment.minutes[m].freeze_ratio -
                 base[m].freeze_ratio) > 1e-12) {
      ++mismatches_h16;
    }
  }
  std::printf("freeze-ratio trajectory mismatches vs horizon 1: "
              "h=4: %zu, h=16: %zu (of %zu minutes)\n",
              mismatches_h4, mismatches_h16, base.size());

  bench::Section("shape checks (Lemma 3.1, end to end)");
  bench::ShapeCheck(mismatches_h4 == 0 && mismatches_h16 == 0,
                    "with linear f(u), deeper planning produces the exact "
                    "same control trajectory (Lemma 3.1)");
  bench::ShapeCheck(results[0].experiment.violations ==
                            results[2].experiment.violations &&
                        results[0].experiment.throughput_jobs ==
                            results[2].experiment.throughput_jobs,
                    "identical trajectories yield identical outcomes");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
