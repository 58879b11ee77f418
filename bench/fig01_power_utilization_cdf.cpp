// Figure 1: CDF of power utilization (normalized to the provisioned budget)
// at rack, row, and data-center levels over one week.
//
// Paper's shape: utilization is lower — and the distribution tighter — at
// larger aggregation scales; the data-center level averages ~0.70 of the
// provisioned budget, while individual racks spread much wider and reach
// closer to 1.0. This is the statistical-multiplexing slack Ampere farms.

#include <vector>

#include "bench/bench_common.h"
#include "src/core/fleet.h"
#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160418;

void Main() {
  bench::Header("Figure 1", "CDF of rack/row/DC power utilization (1 week)",
                kSeed);

  FleetConfig config;
  config.seed = kSeed;
  config.topology.num_rows = 6;
  config.topology.racks_per_row = 8;
  config.topology.servers_per_rack = 20;  // 960 servers total.
  config.monitor.record_racks = true;
  // Six products with distinct levels, phases, and wander (§2.2): the DC
  // mean lands near the paper's ~0.70.
  config.products = {{0.66, 2.0, 0.20, 0.02},  {0.78, 6.0, 0.15, 0.025},
                     {0.71, 10.0, 0.25, 0.02}, {0.84, 14.0, 0.12, 0.03},
                     {0.68, 18.0, 0.22, 0.02}, {0.74, 22.0, 0.18, 0.025}};
  Fleet fleet(config);
  std::printf("fleet: %d rows x %d racks x %d servers; 7 simulated days\n",
              config.topology.num_rows, config.topology.racks_per_row,
              config.topology.servers_per_rack);
  fleet.Run(SimTime::Hours(24 * 7 + 2));

  // Collect post-warmup utilization samples normalized to rated budgets.
  SimTime from = SimTime::Hours(2);
  SimTime to = SimTime::Hours(24 * 7 + 2);
  std::vector<double> rack_util;
  for (int32_t k = 0; k < fleet.dc().num_racks(); ++k) {
    double budget = fleet.dc().rack_budget_watts(RackId(k));
    fleet.db()
        .QueryStitched(PowerMonitor::RackSeries(RackId(k)), from, to)
        .ForEachPoint([&](const TimePoint& p) {
          rack_util.push_back(p.value / budget);
        });
  }
  std::vector<double> row_util;
  for (int32_t r = 0; r < fleet.dc().num_rows(); ++r) {
    double budget = fleet.dc().row_budget_watts(RowId(r));
    fleet.db()
        .QueryStitched(PowerMonitor::RowSeries(RowId(r)), from, to)
        .ForEachPoint([&](const TimePoint& p) {
          row_util.push_back(p.value / budget);
        });
  }
  std::vector<double> dc_util;
  double dc_budget = fleet.dc().total_budget_watts();
  fleet.db()
      .QueryStitched(PowerMonitor::kTotalSeries, from, to)
      .ForEachPoint([&](const TimePoint& p) {
        dc_util.push_back(p.value / dc_budget);
      });

  Summary rack_s = Summarize(rack_util);
  Summary row_s = Summarize(row_util);
  Summary dc_s = Summarize(dc_util);
  bench::Section("utilization summary (normalized to provisioned budget)");
  std::printf("%8s %8s %8s %8s %8s\n", "level", "mean", "p5", "p95", "max");
  std::printf("%8s %8.3f %8.3f %8.3f %8.3f\n", "rack", rack_s.mean,
              Percentile(rack_util, 0.05), Percentile(rack_util, 0.95),
              rack_s.max);
  std::printf("%8s %8.3f %8.3f %8.3f %8.3f\n", "row", row_s.mean,
              Percentile(row_util, 0.05), Percentile(row_util, 0.95),
              row_s.max);
  std::printf("%8s %8.3f %8.3f %8.3f %8.3f\n", "dc", dc_s.mean,
              Percentile(dc_util, 0.05), Percentile(dc_util, 0.95), dc_s.max);

  bench::Section("CDF series (power utilization -> cumulative fraction)");
  EmpiricalCdf rack_cdf(std::move(rack_util));
  EmpiricalCdf row_cdf(std::move(row_util));
  EmpiricalCdf dc_cdf(std::move(dc_util));
  std::printf("%10s %10s %10s %10s\n", "power", "rack", "row", "dc");
  for (double x = 0.60; x <= 1.001; x += 0.02) {
    std::printf("%10.2f %10.4f %10.4f %10.4f\n", x, rack_cdf.Evaluate(x),
                row_cdf.Evaluate(x), dc_cdf.Evaluate(x));
  }

  bench::Section("shape checks vs. paper");
  double rack_spread = rack_cdf.Quantile(0.95) - rack_cdf.Quantile(0.05);
  double dc_spread = dc_cdf.Quantile(0.95) - dc_cdf.Quantile(0.05);
  bench::ShapeCheck(dc_s.mean > 0.62 && dc_s.mean < 0.80,
                    "DC-level mean utilization ~0.70 (budget underused)");
  bench::ShapeCheck(rack_spread > dc_spread,
                    "distribution widens at smaller scales (rack > dc)");
  bench::ShapeCheck(rack_cdf.max() > dc_cdf.max(),
                    "individual racks reach higher peaks than the DC");
}

}  // namespace
}  // namespace ampere

int main() {
  ampere::Main();
  return 0;
}
