// Figure 5: the effect of the freezing ratio u on the one-minute power
// change f(u), measured with the controlled experiment (parity-split groups)
// and summarized by the 25th/50th/75th percentile per u level. The paper
// fits a linear model f(u) = kr * u to these samples; the fitted slope is
// the controller's kr.

#include <vector>

#include "bench/bench_common.h"
#include "src/control/freeze_effect.h"
#include "src/stats/regression.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160405;

void Main() {
  bench::Header("Figure 5", "f(u) percentiles vs freezing ratio + linear fit",
                kSeed);

  ExperimentConfig config =
      bench::PaperExperimentConfig(kSeed, /*target_power=*/0.97,
                                   /*ro=*/0.25);
  config.enable_ampere = false;
  config.warmup = SimTime::Hours(1);
  ControlledExperiment experiment(config);
  std::vector<double> levels{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  std::printf("48 h calibration; cycle = [freeze top u*n for 5 min, sample] "
              "-> [25 min rest] across u in {0..0.6}\n");
  auto samples = experiment.RunFuCalibration(levels, SimTime::Minutes(5),
                                             SimTime::Minutes(25),
                                             SimTime::Hours(48));
  std::printf("collected %zu (u, f) samples\n", samples.size());

  std::vector<double> u;
  std::vector<double> f;
  for (const FuSample& s : samples) {
    u.push_back(s.u);
    f.push_back(s.delta_power);
  }
  std::vector<double> qs{0.25, 0.5, 0.75};
  auto buckets = QuantilesByBucket(u, f, 7, qs);

  bench::Section("f(u) percentiles per freezing-ratio bucket");
  std::printf("%10s %8s %10s %10s %10s\n", "u_center", "n", "p25", "p50",
              "p75");
  for (const auto& b : buckets) {
    std::printf("%10.3f %8zu %10.4f %10.4f %10.4f\n", b.x_center, b.count,
                b.quantiles[0], b.quantiles[1], b.quantiles[2]);
  }

  FreezeEffectModel model = FreezeEffectModel::Fit(samples);
  bench::Section("linear fit (paper: f(u) = kr * u)");
  std::printf("kr = %.4f per minute (normalized to budget), R^2 = %.3f\n",
              model.kr(), model.fit_r_squared());

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(model.kr() > 0.0, "freezing reduces power (kr > 0)");
  // Medians increase with u.
  bool increasing = true;
  for (size_t i = 1; i < buckets.size(); ++i) {
    if (buckets[i].quantiles[1] < buckets[i - 1].quantiles[1] - 0.01) {
      increasing = false;
    }
  }
  bench::ShapeCheck(increasing, "median f(u) increases with u");
  // u = 0 buckets center on zero (no phantom effect).
  bench::ShapeCheck(buckets.front().quantiles[1] < 0.005 &&
                        buckets.front().quantiles[1] > -0.005,
                    "f(0) is centered at zero");
  // The spread (p75-p25) is substantial relative to the median — the
  // statistical control operates under high variance, which is why the
  // paper pairs the linear model with RHC error correction.
  const auto& top = buckets.back();
  bench::ShapeCheck(top.quantiles[2] - top.quantiles[0] > 0.2 * top.quantiles[1],
                    "per-sample effect is noisy (RHC is needed)");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
