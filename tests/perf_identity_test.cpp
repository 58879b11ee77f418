// Bit-identity goldens for the hot-path rebuild (interned telemetry
// handles, incremental power aggregation, pooled event core).
//
// A perf PR must not change *behavior*: the fig10-style grid ResultTable
// CSV and the chaos DecisionJournal CSV are captured from the pre-change
// tree at fixed seeds and committed under tests/golden/. These tests re-run
// the identical scenarios and compare bytes. Any optimization that changes
// float summation order, RNG draw order, or event ordering shows up here as
// a diff, not as a silent drift in every bench.
//
// Regenerating (only when a PR *intentionally* changes behavior):
//   AMPERE_REGEN_GOLDEN=1 ./build/tests/perf_identity_test
// then commit the rewritten files with an explanation.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campus_experiment.h"
#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/harness/grid.h"
#include "src/harness/runner.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/power_monitor.h"
#include "src/workload/batch_workload.h"

#ifndef AMPERE_GOLDEN_DIR
#error "AMPERE_GOLDEN_DIR must be defined by the build"
#endif

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160416;

std::string GoldenPath(const std::string& name) {
  return std::string(AMPERE_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write golden " << path;
  out << content;
}

bool RegenRequested() {
  const char* env = std::getenv("AMPERE_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Compares `actual` against the committed golden byte-for-byte, or rewrites
// the golden in regen mode. On mismatch prints the first differing line so
// the drift is actionable without a diff tool.
void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    WriteFileOrDie(path, actual);
    GTEST_LOG_(INFO) << "regenerated golden " << path;
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << " (run with AMPERE_REGEN_GOLDEN=1 to create it)";
  if (actual == expected) {
    SUCCEED();
    return;
  }
  // Locate the first differing line for the failure message.
  std::istringstream a(actual), e(expected);
  std::string la, le;
  size_t line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool ge = static_cast<bool>(std::getline(e, le));
    if (!ga && !ge) {
      break;
    }
    if (la != le || ga != ge) {
      FAIL() << name << " diverges from golden at line " << line
             << "\n  golden: " << (ge ? le : std::string("<eof>"))
             << "\n  actual: " << (ga ? la : std::string("<eof>"));
    }
  }
  FAIL() << name << " differs from golden (same lines, different bytes?)";
}

// --- Fig10-style grid ----------------------------------------------------

// A shrunk Figure-10 grid: the paper row topology, light and heavy arms,
// 4 h of measurement. Small enough for ctest, large enough that the
// controller freezes/unfreezes, the breaker observes, and DVFS reconciles
// tasks — i.e. every hot path this PR touches feeds these bytes.
ExperimentConfig Fig10StyleConfig(double target_power, double ar_sigma,
                                  uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 10;
  config.topology.servers_per_rack = 42;  // The 420-server paper row.
  config.topology.power_model.rated_watts = 250.0;
  config.topology.power_model.idle_fraction = 0.65;
  config.over_provision_ratio = 0.25;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, target_power, 0.25);
  config.workload.arrivals.ar_sigma = ar_sigma;
  config.workload.arrivals.burst_prob = 0.012;
  config.workload.arrivals.burst_factor = 2.2;
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Hours(1);
  config.duration = SimTime::Hours(4);
  return config;
}

TEST(PerfIdentityTest, Fig10GridResultTableMatchesGolden) {
  struct Arm {
    const char* name;
    double target_power;
    double ar_sigma;
  };
  const std::vector<Arm> arms = {
      {"light", 0.91, 0.035},
      {"heavy", 1.00, 0.015},
  };
  harness::RunnerOptions options;
  options.jobs = 2;
  auto grid = harness::RunGrid(
      arms,
      [](const Arm& arm, size_t i) {
        return harness::GridMeta{arm.name, kSeed + i};
      },
      [](const Arm& arm, harness::RunContext& context) {
        ExperimentConfig config = Fig10StyleConfig(
            arm.target_power, arm.ar_sigma,
            kSeed + (arm.target_power > 0.95 ? 1 : 0));
        ExperimentResult result = RunExperimentToResult(config);
        context.Metric("u_mean", result.experiment.u_mean);
        context.Metric("u_max", result.experiment.u_max);
        context.Metric("P_mean", result.experiment.p_mean);
        context.Metric("P_max", result.experiment.p_max);
        context.Metric("violations", result.experiment.violations);
        context.Metric("ctl_P_max", result.control.p_max);
        context.Metric("ctl_violations", result.control.violations);
        context.Metric("gain_tpw", result.gain_tpw);
        context.Metric("jobs_completed",
                       static_cast<double>(result.jobs_completed));
        return result;
      },
      options);
  for (const harness::ResultRow& row : grid.table.rows()) {
    ASSERT_TRUE(row.ok) << row.scenario << ": " << row.error;
  }
  ExpectMatchesGolden("fig10_grid_result_table.csv", grid.table.ToCsv());
}

// --- Chaos DecisionJournal ----------------------------------------------

// One faulted closed loop (dropouts + stale/blackout windows + lossy RPCs)
// whose DecisionJournal CSV is the golden: it encodes per-tick observed
// power, margins, freeze decisions, degradation modes, and RPC accounting,
// so it is the most sensitive single artifact the repo has.
std::string RunChaosJournal() {
  TopologyConfig topology;
  topology.num_rows = 3;
  topology.racks_per_row = 2;
  topology.servers_per_rack = 6;  // 36 servers.
  topology.server_capacity = Resources{16.0, 64.0};

  Rng rng(kSeed);
  Simulation sim;
  DataCenter dc(topology, &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, rng.Fork(2));
  std::vector<ServerId> all;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    all.push_back(ServerId(s));
  }
  monitor.RegisterGroup("all", all);

  faults::FaultPlanConfig fault_config;
  fault_config.seed = kSeed + 7;
  fault_config.sample_dropout_prob = 0.20;
  fault_config.stale_windows_per_hour = 3.0;
  fault_config.stale_window_mean = SimTime::Minutes(3);
  fault_config.blackouts_per_hour = 2.0;
  fault_config.blackout_mean = SimTime::Minutes(4);
  fault_config.rpc_failure_prob = 0.20;
  faults::FaultPlan plan =
      faults::FaultPlan::Generate(fault_config, SimTime::Hours(7));
  faults::FaultInjector injector(plan);
  monitor.AttachFaultInjector(&injector);
  scheduler.AttachFaultInjector(&injector);

  JobIdAllocator ids;
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 40.0;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.01);
  config.et = EtEstimator::Constant(0.02);
  AmpereController controller(&scheduler, &monitor, config);
  double budget = dc.total_budget_watts() / 1.25;
  controller.AddDomain({"all", all, budget});

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  controller.Start(&sim, SimTime::Minutes(1) + SimTime::Seconds(1),
                   SimTime::Minutes(1));
  sim.RunUntil(SimTime::Hours(6));
  return controller.journal().ToCsv();
}

TEST(PerfIdentityTest, ChaosDecisionJournalMatchesGolden) {
  ExpectMatchesGolden("chaos_decision_journal.csv", RunChaosJournal());
}

// --- Golden workload trace + golden replay -------------------------------
//
// The ampere.trace.v1 wire format is itself a compatibility surface: a
// serialization change (field order, endianness, lengths) would silently
// orphan every recorded trace. The committed golden trace pins the exact
// bytes; the replay golden pins what the closed loop does with them. Both
// regenerate together with AMPERE_REGEN_GOLDEN=1.

TraceData GoldenTraceData() {
  AdversarialTraceParams params;
  params.kind = AdversarialTraceParams::Kind::kBursts;
  params.seed = kSeed + 31;
  params.duration = SimTime::Hours(2) + SimTime::Minutes(30);
  params.base_rate_per_min = 24.0;
  params.burst_prob = 0.10;
  params.burst_factor = 4.0;
  return GenerateAdversarialTrace(params);
}

TEST(PerfIdentityTest, GoldenTraceBytesMatchGolden) {
  ExpectMatchesGolden("workload_trace_v1.trace",
                      SerializeTrace(GoldenTraceData()));
}

TEST(PerfIdentityTest, GoldenTraceReplayJournalMatchesGolden) {
  // Parse the *committed* golden bytes (not the in-memory generator output)
  // so this test fails if either the on-disk format or the replay semantics
  // drift. In regen mode the trace golden may not exist yet, so fall back
  // to the generator — the bytes test above rewrites the file in the same
  // run.
  const std::string bytes = ReadFileOrEmpty(GoldenPath("workload_trace_v1.trace"));
  TraceData trace;
  if (!bytes.empty()) {
    TraceParseResult parsed = ParseTrace(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.message;
    trace = std::move(parsed.trace);
  } else {
    ASSERT_TRUE(RegenRequested())
        << "missing golden " << GoldenPath("workload_trace_v1.trace");
    trace = GoldenTraceData();
  }

  ExperimentConfig config;
  config.seed = kSeed + 31;
  config.topology.num_rows = 2;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 8;  // 48 servers.
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(2);
  config.trace.replay_data = std::make_shared<const TraceData>(std::move(trace));
  // A curtailment mid-window, so the golden also pins the P(t) path.
  config.budget_schedule.AddStep(SimTime::Minutes(45), SimTime::Minutes(75),
                                 0.9);

  ControlledExperiment experiment(config);
  const ExperimentResult result = experiment.Run();
  ASSERT_NE(experiment.controller(), nullptr);
  EXPECT_GT(result.trace_jobs_replayed, 0u);
  EXPECT_EQ(result.budget_scale_min, 0.9);
  ExpectMatchesGolden("trace_replay_decision_journal.csv",
                      experiment.controller()->journal().ToCsv());
}

// --- Saturated campus ----------------------------------------------------
//
// The goldens above never queue: fig10's rows place every job on submit.
// This 4-DC campus runs DC 0 at target 1.25, so its controller freezes
// enough capacity to back up the queue, every completion drains it through
// failed placements, and spillover moves jobs through TakePending. The
// golden pins the placement path under saturation: each DC's
// DecisionJournal CSV plus its scheduler counters.

std::string RunSaturatedCampus() {
  ExperimentConfig config;
  config.seed = kSeed + 47;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 10;
  config.topology.servers_per_rack = 42;
  config.topology.power_model.rated_watts = 250.0;
  config.topology.power_model.idle_fraction = 0.65;
  config.over_provision_ratio = 0.25;
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  // The diurnal peak inside the short window, where a full day would put it.
  config.workload.arrivals.peak_hour = 2.0;
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(2);
  config.campus.enabled = true;
  config.campus.num_datacenters = 4;
  config.campus.dc_target_power = {1.25, 0.95, 0.90, 0.85};
  config.campus.allocator.policy = CampusAllocPolicy::kHeadroom;
  config.campus.enable_spillover = true;
  config.campus.spillover_queue_threshold = 4;
  config.campus.spillover_max_jobs_per_pass = 16;

  CampusExperiment experiment(config);
  const CampusResult result = experiment.Run();
  EXPECT_GT(result.dcs[0].jobs_spilled_out, 0u)
      << "DC 0 must back up and spill, or this golden pins no queue";
  std::ostringstream out;
  for (size_t i = 0; i < result.dcs.size(); ++i) {
    const DataCenterId id(static_cast<int32_t>(i));
    const Scheduler& scheduler = experiment.scheduler(id);
    const CampusDcResult& dc = result.dcs[i];
    out << "# dc" << i << " submitted=" << scheduler.jobs_submitted()
        << " placed=" << scheduler.jobs_placed()
        << " completed=" << scheduler.jobs_completed()
        << " spilled_out=" << dc.jobs_spilled_out
        << " spilled_in=" << dc.jobs_spilled_in
        << " queued=" << dc.final_queue_length << "\n";
    out << experiment.controller(id).journal().ToCsv();
  }
  return out.str();
}

TEST(PerfIdentityTest, SaturatedCampusJournalMatchesGolden) {
  ExpectMatchesGolden("campus_saturated_journal.csv", RunSaturatedCampus());
}

}  // namespace
}  // namespace ampere
