#include "src/core/fleet.h"

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/stats/descriptive.h"

namespace ampere {
namespace {

FleetConfig SmallFleet() {
  FleetConfig config;
  config.seed = 7;
  config.topology.num_rows = 3;
  config.topology.racks_per_row = 2;
  config.topology.servers_per_rack = 10;  // 20 per row.
  config.monitor.noise_sigma_watts = 0.0;
  config.monitor.quantize_to_watts = false;
  config.products = {{0.72, 4.0, 0.1, 0.01},
                     {0.80, 12.0, 0.1, 0.01},
                     {0.88, 20.0, 0.1, 0.01}};
  return config;
}

TEST(FleetTest, PerRowLoadLevelsMatchProducts) {
  Fleet fleet(SmallFleet());
  fleet.Run(SimTime::Hours(6));
  // Average row power over the last 3 h, normalized to rated budget.
  for (int32_t r = 0; r < 3; ++r) {
    auto points = fleet.db()
                      .QueryStitched(PowerMonitor::RowSeries(RowId(r)),
                                     SimTime::Hours(3), SimTime::Hours(6))
                      .Materialize();
    ASSERT_FALSE(points.empty());
    double sum = 0.0;
    for (const auto& p : points) {
      sum += p.value;
    }
    double mean = sum / static_cast<double>(points.size());
    double normalized = mean / (20.0 * 250.0);
    double expected = SmallFleet().products[static_cast<size_t>(r)]
                          .target_power;
    EXPECT_NEAR(normalized, expected, 0.05) << "row " << r;
  }
}

TEST(FleetTest, RowAffinityKeepsProductsSeparate) {
  Fleet fleet(SmallFleet());
  fleet.Run(SimTime::Hours(2));
  // Higher-power rows received more placements.
  EXPECT_GT(fleet.scheduler().placements_in_row(RowId(2)),
            fleet.scheduler().placements_in_row(RowId(0)));
  // All jobs went somewhere (no starvation).
  EXPECT_GT(fleet.scheduler().jobs_placed(), 0u);
}

TEST(FleetTest, RatesScaleWithTargetPower) {
  Fleet fleet(SmallFleet());
  EXPECT_LT(fleet.row_rate_per_min(RowId(0)), fleet.row_rate_per_min(RowId(1)));
  EXPECT_LT(fleet.row_rate_per_min(RowId(1)), fleet.row_rate_per_min(RowId(2)));
}

TEST(FleetTest, ProductListShorterThanRowsRepeatsLast) {
  FleetConfig config = SmallFleet();
  config.products = {{0.8, 10.0, 0.1, 0.01}};
  Fleet fleet(config);
  EXPECT_DOUBLE_EQ(fleet.row_rate_per_min(RowId(0)),
                   fleet.row_rate_per_min(RowId(2)));
}

TEST(FleetTest, FlexibleStreamAddsUnpinnedLoad) {
  FleetConfig config = SmallFleet();
  // Cool, symmetric pinned floors plus a flexible stream.
  config.products = {{0.70, 4.0, 0.0, 0.005},
                     {0.70, 12.0, 0.0, 0.005},
                     {0.70, 20.0, 0.0, 0.005}};
  config.flexible_target_power = 0.06;
  config.flexible.diurnal_amplitude = 0.0;
  config.flexible.ar_sigma = 0.005;
  Fleet fleet(config);
  fleet.Run(SimTime::Hours(4));
  // Mean row power over the last 2 h should sit near 0.76 of rated.
  for (int32_t r = 0; r < 3; ++r) {
    auto points = fleet.db()
                      .QueryStitched(PowerMonitor::RowSeries(RowId(r)),
                                     SimTime::Hours(2), SimTime::Hours(4))
                      .Materialize();
    double sum = 0.0;
    for (const auto& point : points) {
      sum += point.value;
    }
    double normalized =
        sum / static_cast<double>(points.size()) / (20.0 * 250.0);
    EXPECT_NEAR(normalized, 0.76, 0.04) << "row " << r;
  }
}

TEST(FleetTest, FlexibleStreamUnreachableTargetThrows) {
  FleetConfig config = SmallFleet();
  config.flexible_target_power = 0.9;  // Beyond the dynamic range (0.35).
  EXPECT_THROW(Fleet{config}, CheckFailure);
}

TEST(FleetTest, EmptyProductsThrows) {
  FleetConfig config = SmallFleet();
  config.products.clear();
  EXPECT_THROW(Fleet{config}, CheckFailure);
}

TEST(FleetTest, IncrementalAggregatesStayWithinDriftBoundOverSevenDays) {
  // Seven days of steady churn pushes the incremental rack/row/dc power
  // aggregates through hundreds of thousands of delta updates — several
  // resummation epochs (kResumIntervalMutations apart). At any point between
  // snaps the accumulated float drift must stay within 1e-9 W of a full
  // recomputation from the per-server caches.
  Fleet fleet(SmallFleet());
  fleet.Run(SimTime::Hours(24 * 7));
  DataCenter& dc = fleet.dc();
  // The run crossed at least one snap (the counter would otherwise hold the
  // full mutation count of the week).
  EXPECT_LT(dc.power_mutations_since_resum(),
            DataCenter::kResumIntervalMutations);
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    EXPECT_NEAR(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)),
                1e-9)
        << "row " << r;
  }
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    EXPECT_NEAR(dc.rack_power_watts(RackId(k)),
                dc.ExactRackPowerWatts(RackId(k)), 1e-9)
        << "rack " << k;
  }
  EXPECT_NEAR(dc.total_power_watts(), dc.ExactTotalPowerWatts(), 1e-9);
}

}  // namespace
}  // namespace ampere
