// Figure 7: CDF of batch job durations in the production cluster.
// Paper's shape: mean ≈ 9 minutes, ~40 % of jobs finish within 2 minutes,
// and the CDF reaches ~0.97 by 50 minutes.

#include <vector>

#include "bench/bench_common.h"
#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"
#include "src/workload/duration_model.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160407;

void Main() {
  bench::Header("Figure 7", "CDF of batch job durations", kSeed);

  DurationModel model;
  Rng rng(kSeed);
  std::vector<double> minutes;
  const int n = 500000;
  minutes.reserve(n);
  for (int i = 0; i < n; ++i) {
    minutes.push_back(model.Sample(rng).minutes());
  }
  Summary s = Summarize(minutes);
  std::printf("samples: %d   mean: %.2f min   p50: %.2f min\n", n, s.mean,
              Percentile(minutes, 0.5));

  EmpiricalCdf cdf(std::move(minutes));
  bench::Section("CDF (duration in minutes -> cumulative fraction)");
  std::printf("%10s %10s\n", "minutes", "cdf");
  for (double x : {0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0, 20.0, 25.0,
                   30.0, 40.0, 50.0}) {
    std::printf("%10.1f %10.4f\n", x, cdf.Evaluate(x));
  }

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(s.mean > 8.4 && s.mean < 9.6,
                    "average job duration ~9 minutes");
  bench::ShapeCheck(cdf.Evaluate(2.0) > 0.36 && cdf.Evaluate(2.0) < 0.44,
                    "~40% of jobs finish within 2 minutes");
  bench::ShapeCheck(cdf.Evaluate(50.0) > 0.94,
                    "CDF nearly saturates by 50 minutes");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
