// Table 3: gain in throughput-per-provisioned-watt (G_TPW) under different
// over-provisioning ratios rO and workload levels — thirteen day-long runs.
//
// Paper's shape: at a given rO, G_TPW falls as the power demand (P_mean,
// measured on the uncontrolled group and normalized to the scaled budget)
// approaches/exceeds 1.0, because the controller must freeze more (u_mean
// rises, rT falls). Across rO: 0.25 is too aggressive under heavy load
// (G_TPW collapses toward 0), 0.13 caps the attainable gain at 13 %, and
// 0.17 is the sweet spot the paper deploys (~15-17 % gain under typical
// workload).
//
// All 13 runs (and the 4 calibrations before them) are independent
// simulations, so they execute in parallel through the scenario harness:
//   table3_gtpw_sweep [--jobs=N] [--csv=PATH] [--json=PATH]
// Metric rows are bit-identical for any --jobs value; the JSON output
// carries per-run wall-clock timing.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160413;

struct RunSpec {
  size_t ro_index;      // Index into kRos — never matched by floating ==.
  double target_power;  // Demand level normalized to the scaled budget.
};

// One calibration per rO (the effect slope depends on rO, §3.4).
const std::vector<double> kRos = {0.25, 0.21, 0.17, 0.13};

struct RunOutcome {
  double ro = 0.0;
  double p_mean = 0.0;
  double p_max = 0.0;
  double u_mean = 0.0;
  double r_thru = 0.0;
  double gain = 0.0;
};

int Main(const harness::HarnessArgs& args) {
  bench::Header("Table 3", "G_TPW across rO x workload (13 day-long runs)",
                kSeed);

  // Mirrors the paper's 13 rows: four demand levels per rO in {0.25, 0.21,
  // 0.17} and the single light 0.13 run. The absolute levels are shifted
  // up relative to the paper's P_mean column because our servers idle at
  // 65 % of rated power: normalized to the scaled budget, the idle floor
  // alone is 0.81 at rO = 0.25, so "light demand" starts above that.
  const std::vector<RunSpec> runs = {
      {0, 0.88}, {0, 0.94}, {0, 0.99}, {0, 1.01},
      {1, 0.86}, {1, 0.91}, {1, 0.96}, {1, 1.00},
      {2, 0.82}, {2, 0.87}, {2, 0.93}, {2, 0.99},
      {3, 0.80},
  };

  std::printf("calibrating f(u) per rO (parallel)...\n");
  auto calibration = harness::RunGrid(
      kRos,
      [](double ro, size_t) {
        char name[32];
        std::snprintf(name, sizeof(name), "calibrate rO=%.2f", ro);
        return harness::GridMeta{name, kSeed};
      },
      [](double ro, harness::RunContext& context) {
        FreezeEffectModel model =
            bench::CalibrateEffectModel(kSeed, /*target_power=*/0.95, ro);
        context.Metric("kr", model.kr());
        context.Metric("r_squared", model.fit_r_squared());
        return model.kr();
      },
      args.runner);
  // Calibrated slopes are indexed by rO *index*, so a RunSpec can never
  // silently pick up the wrong model (the old float-equality lookup fell
  // back to models.front() on any mismatch).
  const std::vector<double>& kr_by_ro = calibration.values;
  AMPERE_CHECK(kr_by_ro.size() == kRos.size());
  for (size_t i = 0; i < kRos.size(); ++i) {
    std::printf("  rO=%.2f: f(u) = %.4f * u (R^2 = %.3f)\n", kRos[i],
                calibration.table.row(i).Metric("kr"),
                calibration.table.row(i).Metric("r_squared"));
  }

  auto grid = harness::RunGrid(
      runs,
      [](const RunSpec& run, size_t i) {
        char name[48];
        std::snprintf(name, sizeof(name), "rO=%.2f target=%.2f",
                      kRos[run.ro_index], run.target_power);
        return harness::GridMeta{name, kSeed + i};
      },
      [&kr_by_ro](const RunSpec& run, harness::RunContext& context) {
        AMPERE_CHECK(run.ro_index < kr_by_ro.size())
            << "run spec references an uncalibrated rO";
        const double ro = kRos[run.ro_index];
        ExperimentConfig config = bench::PaperExperimentConfig(
            context.seed(), run.target_power, ro);
        config.controller.effect = FreezeEffectModel(kr_by_ro[run.ro_index]);
        config.controller.et = EtEstimator::Constant(0.02);
        config.workload.arrivals.ar_sigma = 0.02;
        config.workload.arrivals.burst_prob = 0.01;
        config.workload.arrivals.burst_factor = 1.8;
        // §4.4: only the experiment group's budget is scaled, so its
        // throughput loss is measured against unconstrained demand.
        config.scale_control_budget = false;
        ExperimentResult result = RunExperimentToResult(config);

        RunOutcome out;
        out.ro = ro;
        // P_mean/P_max of the control group normalized to the experiment
        // group's scaled budget (paper footnote 2): the control group's
        // budget is unscaled here, so multiply its rated-normalized power
        // by (1 + rO).
        out.p_mean = result.control.p_mean * (1.0 + ro);
        out.p_max = result.control.p_max * (1.0 + ro);
        // Freezing cannot raise throughput: rT > 1 is estimator noise from
        // the random placement split, so clamp like the paper's
        // rthru = 1.0 rows.
        out.r_thru = std::min(result.throughput_ratio, 1.0);
        out.u_mean = result.experiment.u_mean;
        out.gain = GainInTpw(out.r_thru, ro);

        context.Metric("rO", out.ro);
        context.Metric("P_mean", out.p_mean);
        context.Metric("P_max", out.p_max);
        context.Metric("u_mean", out.u_mean);
        context.Metric("r_thru", out.r_thru);
        context.Metric("G_TPW", out.gain);
        return out;
      },
      args.runner);

  bench::Section("Table 3 (per-minute samples over 24 h per run)");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }

  std::vector<double> gains;
  std::vector<double> gains_017;
  bool order_ok = true;
  double prev_gain = 2.0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunOutcome& out = grid.values[i];
    gains.push_back(out.gain);
    if (runs[i].ro_index == 2) {  // rO = 0.17.
      gains_017.push_back(out.gain);
    }
    // Within an rO block, higher demand should not raise the gain.
    if (i > 0 && runs[i - 1].ro_index == runs[i].ro_index) {
      if (out.gain > prev_gain + 0.03) {
        order_ok = false;
      }
    }
    prev_gain = out.gain;
  }
  std::printf("(paper: e.g. rO=0.25 gains 19.7%%..4.3%% as demand rises; "
              "rO=0.17 gains 17%%..5.5%%; rO=0.13 caps at 13%%)\n");

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(order_ok,
                    "within each rO block, G_TPW falls as demand rises");
  bench::ShapeCheck(gains.back() <= 0.13 + 1e-9,
                    "rO=0.13 caps the attainable gain at 13%");
  double best_017 = *std::max_element(gains_017.begin(), gains_017.end());
  bench::ShapeCheck(best_017 > 0.14,
                    "rO=0.17 achieves ~15-17% gain under typical workload");
  double worst_025 = gains[3];
  bench::ShapeCheck(worst_025 < 0.12,
                    "rO=0.25 collapses under heavy demand");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
