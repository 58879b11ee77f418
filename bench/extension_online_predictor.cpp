// Extension (paper §3.6 future work): "We can use a better online power
// prediction model to get a better estimation [of E_t]."
//
// Compares the shipped estimator (static per-hour 99.5th-percentile
// profile) with the online AR(1)+z-sigma predictor on a workload whose
// volatility regime shifts mid-day — the scenario where a static profile
// built from yesterday's data is mis-calibrated. Expected shape: the online
// predictor holds a similar violation count with less standing freezing
// (higher throughput), because its margin tracks the live volatility
// instead of the historical worst case.

#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160427;

struct PredictorResult {
  const char* name;
  int violations = 0;
  double u_mean = 0.0;
  double r_thru = 0.0;
};

ExperimentConfig BaseConfig(uint64_t seed) {
  ExperimentConfig config =
      bench::PaperExperimentConfig(seed, /*target_power=*/0.99, 0.25);
  config.controller.effect = FreezeEffectModel(0.013);
  // Volatile, bursty demand.
  config.workload.arrivals.ar_sigma = 0.02;
  config.workload.arrivals.burst_prob = 0.02;
  config.workload.arrivals.burst_factor = 1.8;
  return config;
}

PredictorResult RunStatic(const EtEstimator& et) {
  ExperimentConfig config = BaseConfig(kSeed);
  config.controller.et = et;
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();
  PredictorResult out;
  out.name = "static 99.5p";
  out.violations = result.experiment.violations;
  out.u_mean = result.experiment.u_mean;
  out.r_thru = std::min(result.throughput_ratio, 1.0);
  return out;
}

PredictorResult RunOnline() {
  ExperimentConfig config = BaseConfig(kSeed);
  config.controller.use_online_predictor = true;
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();
  PredictorResult out;
  out.name = "online AR(1)";
  out.violations = result.experiment.violations;
  out.u_mean = result.experiment.u_mean;
  out.r_thru = std::min(result.throughput_ratio, 1.0);
  return out;
}

void Main() {
  bench::Header("Extension: online E_t prediction",
                "static per-hour profile vs live AR(1)+z-sigma margin",
                kSeed);

  // Build the static profile from a separate history run, as production
  // would (yesterday's data parameterizes today's controller).
  ExperimentConfig history_config = BaseConfig(kSeed + 1);
  history_config.enable_ampere = false;
  history_config.duration = SimTime::Hours(48);
  ControlledExperiment history_run(history_config);
  ExperimentResult history = history_run.Run();
  std::vector<double> series;
  for (const MinutePoint& m : history.experiment.minutes) {
    series.push_back(m.normalized_power);
  }
  EtEstimator static_profile =
      EtEstimator::FromHistory(series, /*start_minute_of_day=*/120);

  PredictorResult stat = RunStatic(static_profile);
  PredictorResult online = RunOnline();

  bench::Section("24 h controlled runs at rO=0.25, demand ~0.99 of budget");
  std::printf("%16s %12s %10s %10s\n", "estimator", "violations", "u_mean",
              "r_thru");
  std::printf("%16s %12d %10.3f %10.3f\n", stat.name, stat.violations,
              stat.u_mean, stat.r_thru);
  std::printf("%16s %12d %10.3f %10.3f\n", online.name, online.violations,
              online.u_mean, online.r_thru);

  bench::Section("shape checks (the future-work hypothesis)");
  bench::ShapeCheck(online.violations <= stat.violations + 30,
                    "the online predictor protects comparably");
  bench::ShapeCheck(online.r_thru >= stat.r_thru - 0.02,
                    "the online predictor does not cost throughput");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
