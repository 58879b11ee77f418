// Figure 12: a four-hour trace of power and throughput for the experiment
// (controlled, budget scaled to rO = 0.25) and control groups, illustrating
// why TPW does not grow monotonically with rO: during the boxed high-power
// period the controller must suppress both power AND throughput (paper:
// throughput dips ~20 % inside the box; the window-average rT is ~0.95,
// giving G_TPW = 1.25 * 0.95 - 1 ≈ 0.19).

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160412;

void Main() {
  bench::Header("Figure 12",
                "power + throughput under control, rO=0.25, 4 hours", kSeed);

  FreezeEffectModel effect =
      bench::CalibrateEffectModel(kSeed, /*target_power=*/0.97, /*ro=*/0.25);

  ExperimentConfig config =
      bench::PaperExperimentConfig(kSeed, /*target_power=*/0.97, /*ro=*/0.25);
  config.controller.effect = effect;
  config.controller.et = EtEstimator::Constant(0.02);
  config.duration = SimTime::Hours(4);
  // §4.4 scales only the experiment group's budget so the control group
  // shows the unconstrained demand/throughput.
  config.scale_control_budget = false;
  // A pronounced demand hill in the middle of the window recreates the
  // "boxed" high-power period.
  config.workload.arrivals.diurnal_amplitude = 0.08;
  config.workload.arrivals.peak_hour = 3.5;  // Inside hours 2-6 of sim time.
  ControlledExperiment experiment(config);
  ExperimentResult result = experiment.Run();

  bench::Section("trace (per 10 min): power normalized to scaled budget; "
                 "per-minute placements smoothed over 10 min");
  std::printf("%6s %10s %10s %8s %10s %10s\n", "min", "exp_pow", "ctl_pow",
              "u", "exp_thru", "ctl_thru");
  const auto& exp_min = result.experiment.minutes;
  const auto& ctl_min = result.control.minutes;
  double ctl_budget_scaled =
      experiment.control_budget_watts() / (1.0 + 0.25);
  for (size_t i = 0; i + 10 <= exp_min.size(); i += 10) {
    double exp_thru = 0.0;
    double ctl_thru = 0.0;
    for (size_t j = i; j < i + 10; ++j) {
      exp_thru += exp_min[j].placements;
      ctl_thru += ctl_min[j].placements;
    }
    // Normalize the control group's power to the same scaled budget so the
    // two curves are comparable (paper footnote 2).
    std::printf("%6zu %10.3f %10.3f %8.3f %10.1f %10.1f\n", i,
                exp_min[i].normalized_power,
                ctl_min[i].power_watts / ctl_budget_scaled,
                exp_min[i].freeze_ratio, exp_thru / 10.0, ctl_thru / 10.0);
  }

  // Boxed period: the contiguous third of the window with the highest
  // control-group power.
  size_t n = ctl_min.size();
  size_t box_len = n / 3;
  size_t best_start = 0;
  double best_sum = -1.0;
  for (size_t start = 0; start + box_len <= n; start += 10) {
    double sum = 0.0;
    for (size_t j = start; j < start + box_len; ++j) {
      sum += ctl_min[j].power_watts;
    }
    if (sum > best_sum) {
      best_sum = sum;
      best_start = start;
    }
  }
  auto thru_ratio_in = [&](size_t from, size_t to) {
    double e = 0.0;
    double c = 0.0;
    for (size_t j = from; j < to; ++j) {
      e += exp_min[j].placements;
      c += ctl_min[j].placements;
    }
    return c > 0.0 ? e / c : 0.0;
  };
  double rt_box = thru_ratio_in(best_start, best_start + box_len);
  double rt_all = result.throughput_ratio;

  bench::Section("TPW accounting (Eq. 18)");
  std::printf("boxed high-power period: minutes %zu-%zu\n", best_start,
              best_start + box_len);
  std::printf("rT inside box = %.3f  (paper: ~0.8 under sustained peak)\n",
              rt_box);
  std::printf("rT whole window = %.3f  (paper: ~0.95)\n", rt_all);
  std::printf("G_TPW = (1+0.25)*rT - 1 = %.3f (box: %.3f)\n",
              GainInTpw(rt_all, 0.25), GainInTpw(rt_box, 0.25));

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(rt_box < rt_all,
                    "throughput suppression concentrates in the box");
  bench::ShapeCheck(rt_all > rt_box && rt_all <= 1.02,
                    "window-average rT exceeds boxed rT and stays <= ~1");
  bench::ShapeCheck(GainInTpw(rt_all, 0.25) > GainInTpw(rt_box, 0.25),
                    "G_TPW is workload dependent (worse at sustained peak)");
  double u_box_mean = 0.0;
  for (size_t j = best_start; j < best_start + box_len; ++j) {
    u_box_mean += exp_min[j].freeze_ratio;
  }
  u_box_mean /= static_cast<double>(box_len);
  bench::ShapeCheck(u_box_mean > result.experiment.u_mean,
                    "control actions concentrate in the high-power box");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
