// Trace record/replay grid: workload source x budget schedule.
//
// The subsystem under test is the ampere.trace.v1 record/replay path
// (src/workload/trace_format.h) plus the time-varying budget P(t)
// (src/control/budget_schedule.h). The bench:
//
//   1. Records one synthetic run's workload through the TraceRecorder,
//      round-trips it through SerializeTrace -> ParseTrace, and generates
//      three seeded adversarial traces (bursts, synchronized arrivals,
//      heavy-tail durations).
//   2. Runs the grid {synthetic, replayed, adv-bursts, adv-sync,
//      adv-heavytail} x {static cap, curtailment P(t)} with the RHC
//      controller (horizon 3).
//
// The claims under test (the PR's acceptance bar): a replayed trace
// reproduces the synthetic run bit-for-bit (journal summary, power peaks,
// job counts); recording is a pass-through decorator (the recording run IS
// the synthetic run); and the controller rides a mid-day curtailment event
// — a step to 0.85 x budget followed by a recovery ramp — with ZERO breaker
// trips on every arm, including the adversarial ones.
//
// Tiers: --quick runs a 48-server DC for a 2 h measured window (the CI
// smoke tier); default is the paper row (420 servers) over 8 h.
//
// Flags: the usual harness set, plus --record=PATH to write the recorded
// synthetic trace as an ampere.trace.v1 artifact (CI uploads one).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160808;

struct CellSpec {
  std::string name;
  std::shared_ptr<const TraceData> replay;  // Null = synthetic generator.
  bool curtailed = false;
};

ExperimentConfig BaseConfig(bool quick) {
  ExperimentConfig config;
  config.seed = kSeed;
  if (quick) {
    config.topology.num_rows = 2;
    config.topology.racks_per_row = 3;
    config.topology.servers_per_rack = 8;  // 48 servers.
    config.topology.server_capacity = Resources{16.0, 64.0};
    config.topology.power_model.rated_watts = 250.0;
    config.topology.power_model.idle_fraction = 0.65;
    config.warmup = SimTime::Minutes(30);
    config.duration = SimTime::Hours(2);
  } else {
    config.topology = bench::PaperRowTopology();  // 420 servers.
    config.warmup = SimTime::Hours(2);
    config.duration = SimTime::Hours(8);
  }
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, /*target_normalized_power=*/0.97,
      /*over_provision_ratio=*/0.25);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.controller.horizon = 3;  // RHC: forecast the curtailment window.
  return config;
}

// The curtailment event: a step to 0.85 x budget for 40 minutes starting
// one hour into the measured window, then a 20-minute recovery ramp back
// to the full cap. Fits inside the quick tier's 2 h window.
BudgetSchedule CurtailmentSchedule() {
  BudgetSchedule schedule;
  schedule.AddStep(SimTime::Minutes(60), SimTime::Minutes(100), 0.85);
  schedule.AddRamp(SimTime::Minutes(100), SimTime::Minutes(120), 0.85, 1.0);
  return schedule;
}

bool SameTrace(const TraceData& a, const TraceData& b) {
  if (a.seed != b.seed || a.classes.size() != b.classes.size() ||
      a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.classes.size(); ++i) {
    if (a.classes[i].cpu_cores != b.classes[i].cpu_cores ||
        a.classes[i].memory_gb != b.classes[i].memory_gb ||
        a.classes[i].weight != b.classes[i].weight) {
      return false;
    }
  }
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const TraceJob& x = a.jobs[i];
    const TraceJob& y = b.jobs[i];
    if (x.submit_us != y.submit_us || x.duration_us != y.duration_us ||
        x.cpu_cores != y.cpu_cores || x.memory_gb != y.memory_gb ||
        x.row_affinity != y.row_affinity || x.class_id != y.class_id) {
      return false;
    }
  }
  return true;
}

// Bit-for-bit outcome equality across two runs: the journal summary (every
// per-tick statistic folded in), the power peaks, and the job totals.
bool SameOutcome(const ExperimentResult& a, const ExperimentResult& b) {
  return a.journal.ToJson() == b.journal.ToJson() &&
         a.experiment.p_max == b.experiment.p_max &&
         a.experiment.p_mean == b.experiment.p_mean &&
         a.experiment.u_mean == b.experiment.u_mean &&
         a.experiment.violations == b.experiment.violations &&
         a.control.p_max == b.control.p_max &&
         a.jobs_submitted == b.jobs_submitted &&
         a.jobs_completed == b.jobs_completed;
}

int Main(const harness::HarnessArgs& args) {
  bool quick = false;
  for (const std::string& arg : args.positional) {
    if (arg == "--quick") {
      quick = true;
    }
  }
  bench::Header("Trace replay grid",
                std::string("record/replay x budget schedule, RHC horizon 3") +
                    (quick ? " (quick tier)" : ""),
                kSeed);

  // --budget-schedule overrides the curtailed arm's P(t) (main rejects a
  // constant one). The static arm always stays constant.
  BudgetSchedule curtailment = CurtailmentSchedule();
  if (args.budget_schedule.has_value()) {
    curtailment = *args.budget_schedule;
  }

  // --- Phase 1: record the synthetic run, round-trip, generate adversaries.
  bench::Section("phase 1: record + round trip + adversarial generation");
  ExperimentConfig record_config = BaseConfig(quick);
  record_config.trace.record = true;
  ControlledExperiment recorder_run(record_config);
  const ExperimentResult recorded_result = recorder_run.Run();
  std::shared_ptr<const TraceData> recorded = recorder_run.RecordedTrace();
  std::printf("recorded %zu jobs from the synthetic generator\n",
              recorded->jobs.size());

  const std::string bytes = SerializeTrace(*recorded);
  TraceParseResult parsed = ParseTrace(bytes);
  std::printf("serialized %zu bytes -> parse: %s\n", bytes.size(),
              parsed.ok() ? "ok" : parsed.message.c_str());
  bench::ShapeCheck(parsed.ok() && SameTrace(*recorded, parsed.trace),
                    "serialize -> parse round trip preserves the recorded "
                    "trace exactly");

  if (!args.record_trace_path.empty()) {
    const std::filesystem::path out(args.record_trace_path);
    if (out.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(out.parent_path(), ec);
    }
    if (WriteTraceFile(args.record_trace_path, *recorded)) {
      std::printf("wrote %s\n", args.record_trace_path.c_str());
    } else {
      std::printf("FAILED to write %s\n", args.record_trace_path.c_str());
    }
  }

  const SimTime horizon = record_config.warmup + record_config.duration;
  auto adversary = [&](AdversarialTraceParams::Kind kind, uint64_t seed) {
    AdversarialTraceParams params;
    params.kind = kind;
    params.seed = seed;
    params.duration = horizon;
    // Scale the adversary's mean intensity to the calibrated rate so its
    // bursts probe the controller rather than idling or saturating.
    params.base_rate_per_min =
        record_config.workload.arrivals.base_rate_per_min;
    return std::make_shared<const TraceData>(GenerateAdversarialTrace(params));
  };
  auto adv_bursts = adversary(AdversarialTraceParams::Kind::kBursts, kSeed + 11);
  auto adv_sync = adversary(AdversarialTraceParams::Kind::kSynchronized, kSeed + 12);
  auto adv_tail = adversary(AdversarialTraceParams::Kind::kHeavyTail, kSeed + 13);
  std::printf("adversarial traces: bursts=%zu sync=%zu heavytail=%zu jobs\n",
              adv_bursts->jobs.size(), adv_sync->jobs.size(),
              adv_tail->jobs.size());

  // Adversarial traces must survive the same byte round trip.
  TraceParseResult adv_round = ParseTrace(SerializeTrace(*adv_sync));
  bench::ShapeCheck(adv_round.ok() && SameTrace(*adv_sync, adv_round.trace),
                    "adversarial trace survives the byte round trip");

  // --- Phase 2: the grid. -------------------------------------------------
  std::vector<CellSpec> cells;
  std::shared_ptr<const TraceData> replay_source = recorded;
  if (parsed.ok()) {
    // Replay the *parsed* bytes, not the in-memory recording, so the grid
    // exercises the full record -> serialize -> parse -> replay path.
    replay_source =
        std::make_shared<const TraceData>(std::move(parsed.trace));
  }
  std::vector<std::pair<std::string, std::shared_ptr<const TraceData>>>
      sources;
  sources.emplace_back("synthetic", nullptr);
  sources.emplace_back("replayed", replay_source);
  sources.emplace_back("adv-bursts", adv_bursts);
  sources.emplace_back("adv-sync", adv_sync);
  sources.emplace_back("adv-heavytail", adv_tail);
  for (const auto& [name, trace] : sources) {
    for (bool curtailed : {false, true}) {
      cells.push_back(CellSpec{
          name + (curtailed ? "/curtailed" : "/static"), trace, curtailed});
    }
  }

  auto grid = harness::RunGrid(
      cells,
      [](const CellSpec& cell, size_t) {
        return harness::GridMeta{cell.name, kSeed};
      },
      [quick, &curtailment](const CellSpec& cell,
                            harness::RunContext& context) {
        ExperimentConfig config = BaseConfig(quick);
        config.trace.replay_data = cell.replay;
        if (cell.curtailed) {
          config.budget_schedule = curtailment;
        }
        ExperimentResult result = RunExperimentToResult(config);
        context.Metric("violations", result.experiment.violations);
        context.Metric("breaker", result.breaker_tripped ? 1.0 : 0.0);
        context.Metric("P_max", result.experiment.p_max);
        context.Metric("u_mean", result.experiment.u_mean);
        context.Metric("u_max", result.experiment.u_max);
        context.Metric("scale_min", result.budget_scale_min);
        context.Metric("jobs_completed",
                       static_cast<double>(result.jobs_completed));
        context.Metric("replayed",
                       static_cast<double>(result.trace_jobs_replayed));
        return result;
      },
      args.runner);
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }

  auto find = [&](const std::string& name) -> const ExperimentResult& {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].name == name) {
        return grid.values[i];
      }
    }
    AMPERE_CHECK(false) << "missing cell " << name;
    std::abort();
  };

  bench::Section("grid (experiment group, per cell)");
  std::printf("%22s %8s %8s %8s %8s %9s %10s\n", "cell", "P_max", "violate",
              "breaker", "u_mean", "scale_min", "replayed");
  for (size_t i = 0; i < cells.size(); ++i) {
    const ExperimentResult& r = grid.values[i];
    std::printf("%22s %8.3f %8d %8s %8.3f %9.2f %10llu\n",
                cells[i].name.c_str(), r.experiment.p_max,
                r.experiment.violations, r.breaker_tripped ? "TRIP" : "ok",
                r.experiment.u_mean, r.budget_scale_min,
                static_cast<unsigned long long>(r.trace_jobs_replayed));
  }

  const ExperimentResult& syn_static = find("synthetic/static");
  const ExperimentResult& syn_curt = find("synthetic/curtailed");
  const ExperimentResult& rep_static = find("replayed/static");

  bench::Section("shape checks");
  bench::ShapeCheck(SameOutcome(recorded_result, syn_static),
                    "recording is a pass-through decorator: the recording "
                    "run equals the synthetic run bit-for-bit");
  bench::ShapeCheck(SameOutcome(rep_static, syn_static),
                    "record -> serialize -> parse -> replay reproduces the "
                    "synthetic run bit-for-bit");
  bench::ShapeCheck(rep_static.trace_jobs_replayed ==
                        static_cast<uint64_t>(recorded->jobs.size()),
                    "replay submits every recorded job");
  bool no_trips = true;
  for (const ExperimentResult& r : grid.values) {
    no_trips = no_trips && !r.breaker_tripped;
  }
  bench::ShapeCheck(no_trips,
                    "zero breaker trips across the grid, including the "
                    "curtailment event on adversarial traces (acceptance "
                    "bar)");
  // The deepest scale the experiment can observe: its budget event runs
  // 0.5 s past each measured minute, so sample the schedule at exactly
  // those instants (bit-equal to what budget_scale_min folds in).
  double curtail_floor = 1.0;
  for (SimTime t = SimTime::Millis(500); t < BaseConfig(quick).duration;
       t += SimTime::Minutes(1)) {
    curtail_floor = std::min(curtail_floor, curtailment.ScaleAt(t));
  }
  bool scales_ok = true;
  for (size_t i = 0; i < cells.size(); ++i) {
    const double expect = cells[i].curtailed ? curtail_floor : 1.0;
    scales_ok = scales_ok && grid.values[i].budget_scale_min == expect;
  }
  bench::ShapeCheck(scales_ok,
                    "P(t) reached the curtailment floor on curtailed arms "
                    "and stayed flat on static arms");
  bench::ShapeCheck(syn_curt.experiment.u_mean >=
                        syn_static.experiment.u_mean,
                    "curtailment makes the controller freeze at least as "
                    "hard as the static cap");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  const ampere::harness::HarnessArgs args =
      ampere::harness::ParseHarnessArgs(argc, argv);
  // The curtailed arm needs a schedule that varies; a constant spec parses
  // but is a flag error here, before any run.
  if (args.budget_schedule.has_value() &&
      args.budget_schedule->IsConstant()) {
    std::fprintf(stderr,
                 "%s: --budget-schedule: spec is constant; the curtailed arm "
                 "needs a time-varying schedule\n",
                 argv[0]);
    return 2;
  }
  return ampere::Main(args);
}
