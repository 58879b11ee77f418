// Chaos closed-loop tests: the scheduler/controller invariants from
// fuzz_invariants_test must survive every fault dimension, and a faulted
// run must stay a pure function of (workload seed, fault plan) — the
// DecisionJournal CSV is bit-identical on replay and across harness job
// counts, and so is the metrics section of every postmortem it writes.

#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/faults/presets.h"
#include "src/harness/runner.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/power_monitor.h"
#include "src/workload/batch_workload.h"
#include "tests/scratch_dir.h"

namespace ampere {
namespace {

TopologyConfig SmallTopology() {
  TopologyConfig config;
  config.num_rows = 3;
  config.racks_per_row = 2;
  config.servers_per_rack = 6;  // 36 servers.
  config.server_capacity = Resources{16.0, 64.0};
  return config;
}

// Recomputed-from-scratch vs incrementally-maintained power must agree
// (same drift guard as fuzz_invariants_test, under chaos this time).
void CheckPowerAggregates(const DataCenter& dc) {
  double total = 0.0;
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    double row_sum = 0.0;
    for (ServerId id : dc.servers_in_row(RowId(r))) {
      row_sum += dc.server_power_watts(id);
    }
    ASSERT_NEAR(dc.row_power_watts(RowId(r)), row_sum, 1e-6);
    total += row_sum;
  }
  ASSERT_NEAR(dc.total_power_watts(), total, 1e-6);
}

struct ChaosDims {
  const char* name;
  bool dropout;
  bool stale;
  bool rpc;
};

faults::FaultPlanConfig MatrixConfig(const ChaosDims& dims, uint64_t seed) {
  faults::FaultPlanConfig config;
  config.seed = seed;
  if (dims.dropout) config.sample_dropout_prob = 0.30;
  if (dims.stale) {
    config.stale_windows_per_hour = 4.0;
    config.stale_window_mean = SimTime::Minutes(3);
    config.blackouts_per_hour = 2.0;
    config.blackout_mean = SimTime::Minutes(5);
  }
  if (dims.rpc) config.rpc_failure_prob = 0.30;
  return config;
}

// One closed loop on the small topology with an injector attached;
// returns the controller's journal CSV (callers check determinism) after
// asserting the safety invariants.
std::string RunChaosLoop(const ChaosDims& dims, uint64_t workload_seed,
                         uint64_t fault_seed,
                         faults::FaultCounts* counts_out = nullptr) {
  Rng rng(workload_seed);
  Simulation sim;
  DataCenter dc(SmallTopology(), &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, rng.Fork(2));
  std::vector<ServerId> all;
  for (int32_t s = 0; s < dc.num_servers(); ++s) all.push_back(ServerId(s));
  monitor.RegisterGroup("all", all);

  faults::FaultPlan plan =
      faults::FaultPlan::Generate(MatrixConfig(dims, fault_seed),
                                  SimTime::Hours(7));
  faults::FaultInjector injector(plan);
  monitor.AttachFaultInjector(&injector);
  scheduler.AttachFaultInjector(&injector);

  JobIdAllocator ids;
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 40.0;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.002);  // Tiny: u saturates often.
  config.et = EtEstimator::Constant(0.15);   // Huge margin: always acting.
  config.selection = FreezeSelection::kRandom;
  AmpereController controller(&scheduler, &monitor, config);
  controller.AddDomain({"all", all, 36 * 215.0});

  bool frozen_placement = false;
  scheduler.SetPlacementListener([&](const JobSpec&, ServerId server) {
    if (dc.server(server).frozen()) frozen_placement = true;
  });

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  controller.Start(&sim, SimTime::Minutes(1) + SimTime::Seconds(1));
  sim.RunUntil(SimTime::Hours(6));

  // Invariant 1: chaos never smuggles a job onto a frozen server.
  EXPECT_FALSE(frozen_placement) << dims.name;
  // Invariant 2: even with failing freeze/unfreeze RPCs, the controller's
  // cached frozen set equals the scheduler's actual flags (a failed
  // unfreeze must KEEP the server in the cached set).
  size_t flagged = 0;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    if (dc.server(ServerId(s)).frozen()) ++flagged;
  }
  EXPECT_EQ(controller.frozen_count(0), flagged) << dims.name;
  // Invariant 3: power aggregates never drift.
  CheckPowerAggregates(dc);
  // Invariant 4: resource accounting stays sane.
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    const Server& server = dc.server(ServerId(s));
    EXPECT_TRUE(server.capacity().Fits(server.allocated()));
    EXPECT_TRUE(server.allocated().NonNegative());
  }
  // Invariant 5: the journal still round-trips losslessly.
  std::string csv = controller.journal().ToCsv();
  auto parsed = obs::DecisionJournal::ParseCsv(csv);
  EXPECT_TRUE(parsed.has_value()) << dims.name;
  if (parsed.has_value()) {
    EXPECT_EQ(parsed->size(), controller.journal().size()) << dims.name;
  }
  if (counts_out != nullptr) *counts_out = injector.counts();
  return csv;
}

class ChaosClosedLoopTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ChaosClosedLoopTest, InvariantsHoldUnderEveryFaultDimension) {
  auto [seed, dims_int] = GetParam();
  static const ChaosDims kMatrix[] = {
      {"dropout", true, false, false},
      {"stale", false, true, false},
      {"rpc", false, false, true},
      {"all", true, true, true},
  };
  const ChaosDims& dims = kMatrix[dims_int];
  faults::FaultCounts counts;
  RunChaosLoop(dims, seed, seed + 1000, &counts);
  // The dimension under test actually fired.
  if (dims.dropout) {
    EXPECT_GT(counts.dropped_samples, 0u) << dims.name;
  }
  if (dims.stale) {
    EXPECT_GT(counts.telemetry_stalls, 0u) << dims.name;
  }
  if (dims.rpc) {
    EXPECT_GT(counts.rpc_failures, 0u) << dims.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, ChaosClosedLoopTest,
    ::testing::Combine(::testing::Values(99u, 100u),
                       ::testing::Values(0, 1, 2, 3)));

TEST(ChaosDeterminismTest, SameSeedAndPlanReplayBitIdenticalJournal) {
  ChaosDims all{"all", true, true, true};
  faults::FaultCounts counts_a, counts_b;
  std::string a = RunChaosLoop(all, 7, 7001, &counts_a);
  std::string b = RunChaosLoop(all, 7, 7001, &counts_b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // Bit-identical CSV, including degraded/rpc columns.
  EXPECT_EQ(counts_a, counts_b);

  // A different fault seed yields a different chaos trajectory (so the
  // equality above is not vacuous).
  std::string c = RunChaosLoop(all, 7, 7002);
  EXPECT_NE(a, c);
}

// --- Experiment-level determinism across harness job counts ---

// FNV-1a 64 over the journal CSV, folded to a double-exact 32-bit value so
// it can ride in a metric: if any byte of any record differs between two
// runs, the metric differs and ResultTable::SameData fails.
double CsvFingerprint(const std::string& csv) {
  uint64_t h = 1469598103934665603ull;
  for (char ch : csv) {
    h ^= static_cast<uint8_t>(ch);
    h *= 1099511628211ull;
  }
  return static_cast<double>(static_cast<uint32_t>(h ^ (h >> 32)));
}

ExperimentConfig ChaosExperimentConfig(uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.topology = SmallTopology();
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 1.0, config.over_provision_ratio);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(3);
  auto preset = faults::PresetByName("moderate");
  config.faults = *preset;
  config.faults.seed = seed * 31 + 5;
  // Faster window cadence so a 3-hour run reliably hits the degraded paths.
  config.faults.stale_windows_per_hour = 2.0;
  config.faults.blackouts_per_hour = 1.0;
  return config;
}

// Four chaos runs; a non-empty `postmortem_dir` makes each write its
// anomaly postmortems there.
std::vector<harness::Scenario> ChaosScenarios(
    const std::string& postmortem_dir = {}) {
  std::vector<harness::Scenario> scenarios;
  for (uint64_t seed : {501u, 502u, 503u, 504u}) {
    harness::Scenario scenario;
    scenario.name = "chaos-" + std::to_string(seed);
    scenario.seed = seed;
    scenario.body = [seed, postmortem_dir,
                     name = scenario.name](harness::RunContext& context) {
      ExperimentConfig config = ChaosExperimentConfig(seed);
      config.obs.postmortem_dir = postmortem_dir;
      config.obs.run_label = name;
      ControlledExperiment experiment(config);
      ExperimentResult result = experiment.Run();
      context.Metric("p_max", result.experiment.p_max);
      context.Metric("violations", result.experiment.violations);
      context.Metric("jobs_completed",
                     static_cast<double>(result.jobs_completed));
      context.Metric("degraded_ticks",
                     static_cast<double>(result.degraded_ticks));
      context.Metric("rpc_failures",
                     static_cast<double>(result.fault_counts.rpc_failures));
      context.Metric("dropped_samples",
                     static_cast<double>(
                         result.fault_counts.dropped_samples));
      ASSERT_NE(experiment.controller(), nullptr);
      context.Metric("journal_fp",
                     CsvFingerprint(experiment.controller()
                                        ->journal()
                                        .ToCsv()));
    };
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

TEST(ChaosDeterminismTest, JournalAndMetricsIdenticalAcrossJobCounts) {
  std::vector<harness::Scenario> scenarios = ChaosScenarios();
  harness::RunnerOptions serial;
  serial.jobs = 1;
  harness::RunnerOptions parallel;
  parallel.jobs = 4;
  harness::ResultTable a = harness::RunScenarios(scenarios, serial);
  harness::ResultTable b = harness::RunScenarios(scenarios, parallel);
  for (const harness::ResultRow& row : a.rows()) {
    EXPECT_TRUE(row.ok) << row.scenario << ": " << row.error;
    EXPECT_GT(row.Metric("degraded_ticks"), 0.0) << row.scenario;
  }
  // Metric-for-metric (including the journal-CSV fingerprint): a faulted
  // run is a pure function of its config regardless of worker count.
  EXPECT_TRUE(harness::ResultTable::SameData(a, b));
}

// The text of `text` between the first `begin` and the next `end` after it.
std::string Between(const std::string& text, const std::string& begin,
                    const std::string& end) {
  const size_t from = text.find(begin);
  if (from == std::string::npos) return "";
  const size_t to = text.find(end, from + begin.size());
  return text.substr(from + begin.size(), to - from - begin.size());
}

// Every harness run writes into its own metrics registry, --obs or not, so
// a postmortem's metrics are its run's state at the trigger: the same at
// any job count, and never counting another run's controller ticks.
TEST(ChaosPostmortemTest, PostmortemMetricsArePerRunAtAnyJobCount) {
  const ScratchDir scratch("chaos_postmortems");
  // Jobs -> postmortem file -> its counters and gauges.
  std::map<int, std::map<std::string, std::string>> metrics;
  for (int jobs : {1, 3}) {
    const std::string dir = scratch.path() + "/jobs" + std::to_string(jobs);
    harness::RunnerOptions options;
    options.jobs = jobs;
    const harness::ResultTable table =
        harness::RunScenarios(ChaosScenarios(dir), options);
    for (const harness::ResultRow& row : table.rows()) {
      EXPECT_TRUE(row.ok) << row.scenario << ": " << row.error;
    }
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string json = ReadFileOrEmpty(entry.path());
      // Spans are wall time; the counters and gauges come before them.
      const std::string section =
          Between(json, "\"metrics\":{", ",\"spans\":");
      metrics[jobs][entry.path().filename()] = section;
      // The controller ticks once a minute, so by the trigger its run has
      // ticked at most once per started minute.
      const long long trigger_us = std::stoll(Between(
          json.substr(json.find("\"trigger\":")), "\"time_us\":", ","));
      const long long ticks =
          std::stoll(Between(section, "\"controller.ticks\":", ","));
      EXPECT_LE(ticks, trigger_us / 60000000 + 1) << entry.path();
    }
  }
  EXPECT_FALSE(metrics[1].empty());
  EXPECT_EQ(metrics[1], metrics[3]);
}

}  // namespace
}  // namespace ampere
