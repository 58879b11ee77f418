// Figure 2: power of five randomly chosen rows over a two-hour window,
// showing temporal and spatial variation; plus the §2.2 cross-row
// correlation statistic (80 % of pairwise coefficients below 0.33).

#include <vector>

#include "bench/bench_common.h"
#include "src/core/fleet.h"
#include "src/stats/correlation.h"
#include "src/stats/percentile.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160402;

void Main() {
  bench::Header("Figure 2", "row power of 5 rows over 2 hours + correlations",
                kSeed);

  FleetConfig config;
  config.seed = kSeed;
  config.topology.num_rows = 5;
  config.topology.racks_per_row = 8;
  config.topology.servers_per_rack = 20;
  config.monitor.record_racks = false;
  // Five products at distinct levels/phases with strong independent wander.
  config.products = {{0.66, 3.0, 0.20, 0.035},
                     {0.80, 8.0, 0.15, 0.035},
                     {0.72, 13.0, 0.25, 0.035},
                     {0.86, 18.0, 0.12, 0.035},
                     {0.70, 23.0, 0.22, 0.035}};
  Fleet fleet(config);
  fleet.Run(SimTime::Hours(26));

  // Two-hour heat-strip window (hours 12-14), one value per 5 minutes.
  bench::Section("two-hour window, normalized row power (rows as columns)");
  std::printf("%8s %8s %8s %8s %8s %8s\n", "min", "row0", "row1", "row2",
              "row3", "row4");
  for (int m = 0; m <= 120; m += 5) {
    SimTime t = SimTime::Hours(12) + SimTime::Minutes(m);
    std::printf("%8d", m);
    for (int32_t r = 0; r < 5; ++r) {
      auto points =
          fleet.db().QueryStitched(PowerMonitor::RowSeries(RowId(r)), t, t);
      double v = points.empty() ? 0.0
                                : points.Materialize().front().value /
                                      fleet.dc().row_budget_watts(RowId(r));
      std::printf(" %8.3f", v);
    }
    std::printf("\n");
  }

  // Pairwise correlations over the full day.
  std::vector<std::vector<double>> series;
  for (int32_t r = 0; r < 5; ++r) {
    std::vector<double> s;
    fleet.db()
        .QueryStitched(PowerMonitor::RowSeries(RowId(r)), SimTime::Hours(2),
                       SimTime::Hours(26))
        .ForEachPoint([&s](const TimePoint& p) { s.push_back(p.value); });
    series.push_back(std::move(s));
  }
  std::vector<double> cors = PairwiseCorrelations(series);
  bench::Section("pairwise cross-row power correlations (24 h)");
  size_t below = 0;
  for (double c : cors) {
    std::printf("  corr = %+.3f\n", c);
    if (c < 0.33) {
      ++below;
    }
  }
  double frac_below = static_cast<double>(below) /
                      static_cast<double>(cors.size());
  std::printf("fraction below 0.33: %.2f (paper: 0.80)\n", frac_below);

  // Spatial imbalance: mean power spread across rows.
  std::vector<double> means;
  for (const auto& s : series) {
    double sum = 0.0;
    for (double v : s) {
      sum += v;
    }
    means.push_back(sum / static_cast<double>(s.size()) / (160 * 250.0));
  }
  bench::Section("shape checks vs. paper");
  double spread = Percentile(means, 1.0) - Percentile(means, 0.0);
  bench::ShapeCheck(frac_below >= 0.6,
                    "most cross-row correlations are weak (< 0.33)");
  bench::ShapeCheck(spread > 0.08,
                    "rows are spatially unbalanced (mean power spread)");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
