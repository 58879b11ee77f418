// Ablation: the E_t safety-margin estimator (§3.6, design choice 4).
//
// The paper estimates E_t as the per-hour 99.5th percentile of historical
// one-minute power increases, and claims performance is "not sensitive" to
// E_t while noting the estimate is deliberately conservative. This bench
// compares, under a diurnal workload whose volatility varies by hour:
//   * no margin at all (E_t = 0),
//   * flat conservative margins (0.02, 0.05),
//   * the paper's per-hour history-driven profile.
// Expected shape: no margin -> the most violations; a large flat margin ->
// fewest violations but the most freezing; the history profile sits on the
// efficient frontier between them.
//
// The 48-hour history pass runs first (the four arms depend on it); the
// four controlled arms are then independent and run in parallel through
// the scenario harness.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160422;

ExperimentConfig BaseConfig() {
  ExperimentConfig config =
      bench::PaperExperimentConfig(kSeed, /*target_power=*/0.99, 0.25);
  config.controller.effect = FreezeEffectModel(0.013);
  // Volatile demand whose burstiness is time-varying: mornings are calm,
  // afternoons spiky (through the diurnal modulation of arrival rate).
  config.workload.arrivals.ar_sigma = 0.02;
  config.workload.arrivals.burst_prob = 0.02;
  config.workload.arrivals.burst_factor = 1.9;
  config.duration = SimTime::Hours(24);
  return config;
}

struct EtArm {
  const char* name;
  EtEstimator et;
};

struct EtResult {
  const char* name = nullptr;
  int violations = 0;
  double u_mean = 0.0;
  double r_thru = 0.0;
};

int Main(const harness::HarnessArgs& args) {
  bench::Header("Ablation: E_t estimator",
                "zero vs flat vs per-hour-history safety margin", kSeed);

  // History pass: a two-day uncontrolled run provides the per-minute series
  // the paper's estimator consumes.
  ExperimentConfig history_config = BaseConfig();
  history_config.enable_ampere = false;
  history_config.duration = SimTime::Hours(48);
  ExperimentResult history = RunExperimentToResult(history_config);
  std::vector<double> series;
  for (const MinutePoint& m : history.experiment.minutes) {
    series.push_back(m.normalized_power);
  }
  EtEstimator learned = EtEstimator::FromHistory(
      series, /*start_minute_of_day=*/120);
  bench::Section("learned per-hour E_t profile (99.5th pct 1-min increase)");
  for (int h = 0; h < 24; h += 4) {
    std::printf("  %02d:00 %.4f", h, learned.per_hour()[static_cast<size_t>(h)]);
  }
  std::printf("\n");

  const std::vector<EtArm> arms = {
      {"none (0.00)", EtEstimator::Constant(0.0)},
      {"flat 0.02", EtEstimator::Constant(0.02)},
      {"flat 0.05", EtEstimator::Constant(0.05)},
      {"history 99.5p", learned},
  };
  auto grid = harness::RunGrid(
      arms,
      [](const EtArm& arm, size_t) {
        return harness::GridMeta{arm.name, kSeed};
      },
      [](const EtArm& arm, harness::RunContext& context) {
        ExperimentConfig config = BaseConfig();
        config.controller.et = arm.et;
        ExperimentResult result = RunExperimentToResult(config);
        EtResult out;
        out.name = arm.name;
        out.violations = result.experiment.violations;
        out.u_mean = result.experiment.u_mean;
        out.r_thru = std::min(result.throughput_ratio, 1.0);
        context.Metric("violations", out.violations);
        context.Metric("u_mean", out.u_mean);
        context.Metric("r_thru", out.r_thru);
        return out;
      },
      args.runner);

  bench::Section("24 h controlled runs at rO=0.25, demand ~0.99 of budget");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const std::vector<EtResult>& results = grid.values;

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(results[0].violations >= results[2].violations,
                    "no margin risks the most violations");
  bench::ShapeCheck(results[2].u_mean >= results[1].u_mean,
                    "larger flat margins freeze more");
  bench::ShapeCheck(results[3].violations <= results[0].violations,
                    "the history profile protects at least as well as no "
                    "margin");
  // The paper's insensitivity claim holds among *well-sized* margins: the
  // history-driven profile matches the small flat margin's throughput. An
  // oversized flat margin, however, buys its safety with standing freezing
  // — which is exactly why the estimator is data-driven.
  bench::ShapeCheck(
      std::abs(results[3].r_thru - results[1].r_thru) < 0.05,
      "history profile matches the well-sized flat margin's throughput");
  bench::ShapeCheck(results[2].r_thru < results[3].r_thru,
                    "an oversized flat margin costs real throughput, "
                    "motivating the data-driven profile");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
