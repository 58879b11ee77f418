#include "src/cluster/campus.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/common/check.h"

namespace ampere {
namespace {

CampusConfig SmallCampus(int num_dcs = 4) {
  CampusConfig config;
  config.num_datacenters = num_dcs;
  config.datacenter.num_rows = 2;
  config.datacenter.racks_per_row = 2;
  config.datacenter.servers_per_rack = 4;
  config.datacenter.power_model.rated_watts = 250.0;
  config.datacenter.power_model.idle_fraction = 0.65;
  return config;
}

TEST(CampusTest, TopologyCounts) {
  Simulation sim;
  Campus campus(SmallCampus(), &sim);
  EXPECT_EQ(campus.num_datacenters(), 4);
  EXPECT_EQ(campus.servers_per_datacenter(), 16);
  EXPECT_EQ(campus.total_servers(), 64);
  EXPECT_EQ(campus.dc(DataCenterId(2)).num_rows(), 2);
}

TEST(CampusTest, DefaultContractsAreRatedProvisioning) {
  Simulation sim;
  Campus campus(SmallCampus(), &sim);
  // Each DC: 16 servers * 250 W rated.
  EXPECT_DOUBLE_EQ(campus.dc_contract_watts(DataCenterId(0)), 16 * 250.0);
  EXPECT_DOUBLE_EQ(campus.campus_contract_watts(), 4 * 16 * 250.0);
}

TEST(CampusTest, ExplicitContractsLastValueRepeats) {
  CampusConfig config = SmallCampus();
  config.dc_contract_watts = {3000.0, 3500.0};
  Simulation sim;
  Campus campus(config, &sim);
  EXPECT_DOUBLE_EQ(campus.dc_contract_watts(DataCenterId(0)), 3000.0);
  EXPECT_DOUBLE_EQ(campus.dc_contract_watts(DataCenterId(1)), 3500.0);
  EXPECT_DOUBLE_EQ(campus.dc_contract_watts(DataCenterId(2)), 3500.0);
  EXPECT_DOUBLE_EQ(campus.dc_contract_watts(DataCenterId(3)), 3500.0);
  EXPECT_DOUBLE_EQ(campus.campus_contract_watts(),
                   3000.0 + 3 * 3500.0);
}

TEST(CampusTest, ExplicitCampusContractOverridesSum) {
  CampusConfig config = SmallCampus();
  config.campus_contract_watts = 12000.0;
  Simulation sim;
  Campus campus(config, &sim);
  EXPECT_DOUBLE_EQ(campus.campus_contract_watts(), 12000.0);
}

TEST(CampusTest, PowerAggregatesAcrossDcs) {
  Simulation sim;
  Campus campus(SmallCampus(), &sim);
  const double idle = 250.0 * 0.65;
  EXPECT_NEAR(campus.TotalPowerWatts(), 64 * idle, 1e-9);
  EXPECT_NEAR(campus.ExactTotalPowerWatts(), 64 * idle, 1e-9);

  // Load one DC; the campus total follows and stays the sum of DC totals.
  DataCenter& dc1 = campus.dc(DataCenterId(1));
  TaskSpec spec{JobId(1), Resources{8.0, 16.0}, SimTime::Minutes(5)};
  ASSERT_TRUE(dc1.PlaceTask(ServerId(0), spec));
  double expected = 0.0;
  for (int d = 0; d < campus.num_datacenters(); ++d) {
    expected += campus.dc(DataCenterId(d)).total_power_watts();
  }
  EXPECT_NEAR(campus.TotalPowerWatts(), expected, 1e-9);
  EXPECT_GT(campus.TotalPowerWatts(), 64 * idle);

  campus.ResummatePowerAggregates();
  EXPECT_NEAR(campus.TotalPowerWatts(), campus.ExactTotalPowerWatts(), 1e-9);
}

TEST(CampusTest, NoBreakerTrippedAtIdle) {
  Simulation sim;
  Campus campus(SmallCampus(), &sim);
  EXPECT_FALSE(campus.AnyBreakerTripped());
}

TEST(CampusTest, DcsAreIndependent) {
  Simulation sim;
  Campus campus(SmallCampus(2), &sim);
  TaskSpec spec{JobId(7), Resources{4.0, 8.0}, SimTime::Minutes(5)};
  ASSERT_TRUE(campus.dc(DataCenterId(0)).PlaceTask(ServerId(3), spec));
  // Server 3 of DC 1 is a different machine: still idle.
  const double idle = 250.0 * 0.65;
  EXPECT_NEAR(campus.dc(DataCenterId(1)).server_power_watts(ServerId(3)),
              idle, 1e-9);
  EXPECT_GT(campus.dc(DataCenterId(0)).server_power_watts(ServerId(3)), idle);
}

TEST(CampusTest, RejectsEmptyCampus) {
  CampusConfig config = SmallCampus(0);
  Simulation sim;
  EXPECT_THROW(Campus(config, &sim), CheckFailure);
}

TEST(CampusTest, EachCompletionReachesItsOwnDataCenter) {
  Simulation sim;
  Campus campus(SmallCampus(), &sim);
  // (listener's DC, server, job, time) per completion.
  std::vector<std::tuple<int, int32_t, int32_t, SimTime>> completions;
  for (int d = 0; d < campus.num_datacenters(); ++d) {
    campus.dc(DataCenterId(d)).SetTaskCompletionListener(
        [&completions, &sim, d](ServerId s, JobId j) {
          completions.emplace_back(d, s.value(), j.value(), sim.now());
        });
  }
  // The same server id and interleaved durations in every DC, so each DC's
  // pool hands out the same record indices.
  for (int32_t k = 0; k < 3; ++k) {
    for (int d = 0; d < campus.num_datacenters(); ++d) {
      ASSERT_TRUE(campus.dc(DataCenterId(d))
                      .PlaceTask(ServerId(k),
                                 TaskSpec{JobId(100 * d + k),
                                          Resources{2.0, 2.0},
                                          SimTime::Minutes(10 - 3 * k + d)}));
    }
  }
  EXPECT_EQ(sim.pending_events(), 12u);
  sim.RunToCompletion();
  ASSERT_EQ(completions.size(), 12u);
  for (const auto& [d, server, job, at] : completions) {
    const int32_t k = job % 100;
    EXPECT_EQ(job / 100, d);
    EXPECT_EQ(server, k);
    EXPECT_EQ(at, SimTime::Minutes(10 - 3 * k + d));
  }
  for (int d = 0; d < campus.num_datacenters(); ++d) {
    for (int32_t k = 0; k < 3; ++k) {
      EXPECT_EQ(campus.dc(DataCenterId(d)).server(ServerId(k)).num_tasks(),
                0u);
    }
  }
}

}  // namespace
}  // namespace ampere
