// Figure 8: normalized power of one production row over 24 hours, sampled
// each minute. Paper's shape: large hour-scale swings (roughly 0.75-1.0 of
// the daily max) plus hard-to-predict minute-scale spikes and valleys.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fleet.h"
#include "src/stats/descriptive.h"
#include "src/stats/timeseries_ops.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160408;

void Main() {
  bench::Header("Figure 8", "row power over 24 hours (per-minute samples)",
                kSeed);

  FleetConfig config;
  config.seed = kSeed;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 10;
  config.topology.servers_per_rack = 42;
  // Deep diurnal swing + wander: the paper's row spans roughly 0.75-1.0 of
  // its daily peak. The 65 % idle floor compresses power dynamics, so large
  // rate swings are needed to reproduce the band.
  config.products = {{0.82, 15.0, 0.45, 0.04, 0.015, 2.0}};
  Fleet fleet(config);
  fleet.Run(SimTime::Hours(26));

  std::vector<double> series;
  fleet.db()
      .QueryStitched(PowerMonitor::RowSeries(RowId(0)), SimTime::Hours(2),
                     SimTime::Hours(26))
      .ForEachPoint(
          [&series](const TimePoint& p) { series.push_back(p.value); });
  double max_power = *std::max_element(series.begin(), series.end());
  for (double& v : series) {
    v /= max_power;  // Paper normalizes to the daily maximum.
  }

  bench::Section("normalized row power (one sample per 15 min shown; "
                 "per-minute series underlies the statistics)");
  bench::PrintSeries("minute", "power/max", series, /*stride=*/15,
                     /*x_scale=*/1.0);

  Summary s = Summarize(series);
  auto spikes = FirstOrderDifferences(series);
  Summary d = Summarize(spikes);
  bench::Section("variability statistics");
  std::printf("hour-scale: min %.3f  mean %.3f  max %.3f of daily peak\n",
              s.min, s.mean, s.max);
  std::printf("minute-scale: |delta| stddev %.4f, largest single-minute "
              "change %.4f\n",
              d.stddev, std::max(std::abs(d.min), std::abs(d.max)));

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(s.min < 0.85,
                    "hour-scale swings span a wide band below the peak");
  bench::ShapeCheck(d.stddev > 0.001,
                    "visible minute-scale spikes exist");
  bench::ShapeCheck(s.max == 1.0, "series normalized to its daily max");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
