// Figure 9: CDF of row power changes at 1/5/20/60-minute scales, using the
// paper's method: for scale k, take the max power in each k-minute window
// and difference the resulting sequence. All changes are normalized to the
// provisioned power budget.
//
// Paper's shape: at the 1-minute scale 99 % of changes lie within ±2.5 %,
// but the tail reaches ~10 %; longer scales spread progressively wider.

#include <cmath>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fleet.h"
#include "src/stats/percentile.h"
#include "src/stats/timeseries_ops.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160409;

void Main() {
  bench::Header("Figure 9",
                "CDF of power changes at 1/5/20/60-minute scales", kSeed);

  FleetConfig config;
  config.seed = kSeed;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 10;
  config.topology.servers_per_rack = 42;
  // Bursty arrivals generate the rare multi-percent one-minute jumps the
  // paper's Fig. 9 tail shows.
  config.products = {{0.80, 15.0, 0.25, 0.03, 0.015, 2.2}};
  Fleet fleet(config);
  // Several days so the 60-minute sequence has enough points.
  fleet.Run(SimTime::Hours(2 + 24 * 4));

  double budget = fleet.dc().row_budget_watts(RowId(0));
  std::vector<double> per_minute;
  fleet.db()
      .QueryStitched(PowerMonitor::RowSeries(RowId(0)), SimTime::Hours(2),
                     SimTime::Hours(2 + 24 * 4))
      .ForEachPoint([&](const TimePoint& p) {
        per_minute.push_back(p.value / budget);
      });

  const int scales[] = {1, 5, 20, 60};
  std::vector<EmpiricalCdf> cdfs;
  for (int k : scales) {
    cdfs.emplace_back(ScaledPowerChanges(per_minute, k));
  }

  bench::Section("CDF series (normalized change -> cumulative fraction)");
  std::printf("%10s %10s %10s %10s %10s\n", "change", "1-min", "5-min",
              "20-min", "60-min");
  for (double x = -0.10; x <= 0.1001; x += 0.01) {
    std::printf("%10.2f", x);
    for (const auto& cdf : cdfs) {
      std::printf(" %10.4f", cdf.Evaluate(x));
    }
    std::printf("\n");
  }

  bench::Section("spread per scale");
  std::printf("%8s %12s %12s\n", "scale", "p0.5..p99.5", "within ±2.5%");
  std::vector<double> spreads;
  for (size_t i = 0; i < cdfs.size(); ++i) {
    double spread = cdfs[i].Quantile(0.995) - cdfs[i].Quantile(0.005);
    double inside = cdfs[i].Evaluate(0.025) - cdfs[i].Evaluate(-0.025);
    spreads.push_back(spread);
    std::printf("%7dm %12.4f %12.3f\n", scales[i], spread, inside);
  }

  bench::Section("shape checks vs. paper");
  double inside_1min = cdfs[0].Evaluate(0.025) - cdfs[0].Evaluate(-0.025);
  bench::ShapeCheck(inside_1min > 0.97,
                    "1-minute changes within ±2.5% ~99% of the time");
  bench::ShapeCheck(spreads[0] < spreads[1] && spreads[1] < spreads[3],
                    "longer scales spread wider");
  double extreme = std::max(std::abs(cdfs[0].min()), cdfs[0].max());
  bench::ShapeCheck(extreme > 0.02,
                    "rare 1-minute changes of several percent exist");
}

}  // namespace
}  // namespace ampere

int main() {
  ampere::Main();
  return 0;
}
