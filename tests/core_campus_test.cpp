// Closed-loop invariants for the campus federation layer.
//
// These tests run small 2-DC campuses end to end and pin the federation
// contract: the allocator conserves the campus cap across re-plans, the
// headroom policy moves budget toward the hot DC, spillover bookkeeping
// balances across the campus, and the guard rails (campus disabled, faults
// enabled) fail loudly instead of silently running the wrong topology.

#include "src/core/campus_experiment.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/obs/metrics.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20260808;

// 2 DCs x 24 servers, one hot DC and one cold DC, 1 h measured window with
// four 15-minute re-plans.
ExperimentConfig SmallCampusConfig() {
  ExperimentConfig config;
  config.seed = kSeed;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 8;  // 24 servers per DC.
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(1);
  config.campus.enabled = true;
  config.campus.num_datacenters = 2;
  // Note the idle floor: at idle_fraction 0.65 and rO 0.25 a DC cannot sit
  // below ~0.81 normalized power, so "cold" means 0.85 here.
  config.campus.dc_target_power = {0.99, 0.85};
  return config;
}

TEST(CampusExperimentTest, SmokeShapesAndSchedule) {
  CampusResult result = RunCampusToResult(SmallCampusConfig());
  ASSERT_EQ(result.dcs.size(), 2u);
  // Re-plans fire at warmup+5s and then every 15 min inside the 1 h window:
  // 30:05, 45:05, 60:05, 75:05.
  EXPECT_EQ(result.replans, 4u);
  EXPECT_FALSE(result.breaker_tripped);
  EXPECT_GT(result.jobs_submitted, 0u);
  EXPECT_GT(result.jobs_completed, 0u);
  EXPECT_GT(result.throughput_ratio, 0.0);
  // One audit record per DC per re-plan, under the campus/dcK domains.
  EXPECT_EQ(result.allocator_journal.total_appended, 2u * result.replans);
  ASSERT_EQ(result.allocator_journal.domains.size(), 2u);
  EXPECT_NE(result.allocator_journal.FindDomain("campus/dc0"), nullptr);
  EXPECT_NE(result.allocator_journal.FindDomain("campus/dc1"), nullptr);
  for (const CampusDcResult& dc : result.dcs) {
    // 60 measured minutes per group per DC.
    EXPECT_EQ(dc.experiment.minutes.size(), 60u);
    EXPECT_EQ(dc.control.minutes.size(), 60u);
    EXPECT_FALSE(dc.breaker_tripped);
    EXPECT_GT(dc.final_budget_watts, 0.0);
    EXPECT_GT(dc.journal.total_appended, 0u);
  }
}

TEST(CampusExperimentTest, ReplansConserveTheCampusCap) {
  CampusExperiment experiment(SmallCampusConfig());
  const double campus_cap = experiment.allocator().campus_total_watts();
  // The cap is the sum of the rO-scaled per-DC experiment budgets: 12
  // even-parity servers x 250 W rated / 1.25, per DC.
  EXPECT_NEAR(campus_cap, 2 * 12 * 250.0 / 1.25, 1e-9);
  CampusResult result = experiment.Run();
  double final_sum = 0.0;
  for (const CampusDcResult& dc : result.dcs) {
    final_sum += dc.final_budget_watts;
    // No DC's share may exceed its rated experiment-group provisioning.
    EXPECT_LE(dc.final_budget_watts, 12 * 250.0 + 1e-9);
  }
  EXPECT_NEAR(final_sum, campus_cap, 1e-6);
}

TEST(CampusExperimentTest, HeadroomPolicyShiftsBudgetTowardTheHotDc) {
  ExperimentConfig config = SmallCampusConfig();
  config.campus.allocator.policy = CampusAllocPolicy::kHeadroom;
  CampusExperiment experiment(config);
  const double equal_split = experiment.allocator().campus_total_watts() / 2.0;
  CampusResult result = experiment.Run();
  // DC 0 runs at 0.99 normalized power, DC 1 at 0.85: after the re-plans the
  // hot DC must hold more than the static split, funded by the cold one.
  EXPECT_GT(result.dcs[0].final_budget_watts, equal_split);
  EXPECT_LT(result.dcs[1].final_budget_watts, equal_split);
}

TEST(CampusExperimentTest, StaticPolicyKeepsTheEqualSplit) {
  ExperimentConfig config = SmallCampusConfig();
  config.campus.allocator.policy = CampusAllocPolicy::kStatic;
  CampusExperiment experiment(config);
  const double equal_split = experiment.allocator().campus_total_watts() / 2.0;
  CampusResult result = experiment.Run();
  EXPECT_NEAR(result.dcs[0].final_budget_watts, equal_split, 1e-6);
  EXPECT_NEAR(result.dcs[1].final_budget_watts, equal_split, 1e-6);
}

TEST(CampusExperimentTest, SpilloverAccountingBalancesAcrossTheCampus) {
  ExperimentConfig config = SmallCampusConfig();
  // Overdrive DC 0 so its queue backs up while DC 1 idles, and make any
  // queued job eligible to move. The static policy keeps DC 0's budget at
  // the equal split, so its controller stays in violation and keeps
  // freezing (headroom would bail it out instead).
  config.campus.allocator.policy = CampusAllocPolicy::kStatic;
  config.campus.dc_target_power = {1.24, 0.85};
  config.campus.enable_spillover = true;
  config.campus.spillover_queue_threshold = 0;
  config.campus.spillover_max_jobs_per_pass = 16;
  CampusResult result = RunCampusToResult(config);
  uint64_t total_out = 0;
  uint64_t total_in = 0;
  for (const CampusDcResult& dc : result.dcs) {
    total_out += dc.jobs_spilled_out;
    total_in += dc.jobs_spilled_in;
  }
  EXPECT_EQ(total_out, result.spillover_jobs);
  EXPECT_EQ(total_in, result.spillover_jobs);
  // The overdriven DC actually starves: spillover must have engaged.
  EXPECT_GT(result.spillover_jobs, 0u);
  EXPECT_GT(result.dcs[0].jobs_spilled_out, 0u);
  EXPECT_EQ(result.dcs[0].jobs_spilled_in, 0u);
}

// The scheduler counts its jobs off the registry and the campus publishes
// them once per DC at the end of the run, under that DC's domain, next to
// the counters its controller wrote live.
TEST(CampusExperimentTest, EndOfRunSnapshotFilesEachDcUnderItsDomain) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  CampusExperiment experiment(SmallCampusConfig());
  const CampusResult result = experiment.Run();
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(result.dcs.size(), 2u);
  for (size_t k = 0; k < result.dcs.size(); ++k) {
    const std::string prefix = "dc" + std::to_string(k) + "/";
    const uint64_t* submitted =
        snapshot.FindCounter(prefix + "sched.jobs_submitted");
    ASSERT_NE(submitted, nullptr) << prefix;
    EXPECT_GT(*submitted, 0u);
    EXPECT_EQ(*submitted, result.dcs[k].jobs_submitted);
    const uint64_t* ticks = snapshot.FindCounter(prefix + "controller.ticks");
    ASSERT_NE(ticks, nullptr) << prefix;
    EXPECT_EQ(*ticks,
              experiment.controller(DataCenterId(static_cast<int32_t>(k)))
                  .ticks());
  }
  EXPECT_EQ(snapshot.FindCounter("sched.jobs_submitted"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("controller.ticks"), nullptr);
}

TEST(CampusExperimentTest, SpilloverOffMovesNothing) {
  CampusResult result = RunCampusToResult(SmallCampusConfig());
  EXPECT_EQ(result.spillover_jobs, 0u);
  for (const CampusDcResult& dc : result.dcs) {
    EXPECT_EQ(dc.jobs_spilled_out, 0u);
    EXPECT_EQ(dc.jobs_spilled_in, 0u);
  }
}

TEST(CampusExperimentTest, SeriesLandUnderPerDcPrefixes) {
  CampusExperiment experiment(SmallCampusConfig());
  experiment.Run();
  EXPECT_EQ(CampusExperiment::DcPrefix(DataCenterId(3)), "campus/dc3/");
  const std::vector<std::string> names = experiment.db().SeriesNames();
  auto any_with_prefix = [&names](const std::string& prefix) {
    return std::any_of(names.begin(), names.end(),
                       [&prefix](const std::string& name) {
                         return name.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(any_with_prefix("campus/dc0/"));
  EXPECT_TRUE(any_with_prefix("campus/dc1/"));
  // Every series is namespaced: nothing leaks into the single-DC names.
  for (const std::string& name : names) {
    EXPECT_EQ(name.rfind("campus/dc", 0), 0u) << name;
  }
}

TEST(CampusExperimentTest, GuardRailsRejectBadConfigs) {
  ExperimentConfig disabled = SmallCampusConfig();
  disabled.campus.enabled = false;
  EXPECT_THROW(RunCampusToResult(disabled), CheckFailure);

  ExperimentConfig no_controller = SmallCampusConfig();
  no_controller.enable_ampere = false;
  EXPECT_THROW(RunCampusToResult(no_controller), CheckFailure);

  ExperimentConfig faulted = SmallCampusConfig();
  faulted.faults.sample_dropout_prob = 0.01;
  EXPECT_THROW(RunCampusToResult(faulted), CheckFailure);
}

}  // namespace
}  // namespace ampere
