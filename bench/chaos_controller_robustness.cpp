// Chaos grid: controller robustness under deterministic fault injection.
//
// Re-runs the Fig. 10 closed-loop scenario (light and heavy workload arms,
// rO = 0.25, 24 hours) under every fault preset (none | light | moderate |
// heavy, src/faults/presets.h): dropped telemetry samples, sensor noise
// spikes and bias, stale monitor windows, per-row feed blackouts, and
// fallible freeze/unfreeze RPCs with retry/backoff.
//
// The claim under test (the PR's acceptance bar): graceful degradation.
// Under the `moderate` preset — >= 5 % sample dropout, >= 1 % RPC failure,
// recurring stale windows and row blackouts — the controller still finishes
// the day with ZERO breaker trips, near-baseline violation counts, and
// <= 10 % capacity loss versus the fault-free run of the same arm. Stale
// fallback (widened E_t) and blackout skip (hold, don't guess) trade a
// little capacity for safety; they never trade safety away.
//
// Every run is a pure function of (workload seed, fault-plan seed): the
// grid also re-runs one chaos cell serially and checks the journal summary
// and fault counts reproduce bit-for-bit.

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/faults/presets.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160410;
// Fault-plan seeds are deliberately disjoint from workload seeds: the plan
// draws from its own root stream so the same chaos schedule can be replayed
// against any workload.
constexpr uint64_t kFaultSeed = 977001;

struct ArmSpec {
  const char* name;
  double target_power;
  double ar_sigma;
};

struct CellSpec {
  ArmSpec arm;
  std::string preset;  // Owned: PresetNames() returns by value.
  uint64_t workload_seed;
  uint64_t fault_seed;
};

ExperimentConfig CellConfig(const CellSpec& cell,
                            const FreezeEffectModel& effect) {
  ExperimentConfig config = bench::PaperExperimentConfig(
      cell.workload_seed, cell.arm.target_power, 0.25);
  config.controller.effect = effect;
  config.controller.et = EtEstimator::Constant(0.02);
  config.workload.arrivals.ar_sigma = cell.arm.ar_sigma;
  config.workload.arrivals.burst_prob = 0.012;
  config.workload.arrivals.burst_factor = 2.2;
  auto faults = faults::PresetByName(cell.preset);
  AMPERE_CHECK(faults.has_value()) << "unknown preset " << cell.preset;
  config.faults = *faults;
  config.faults.seed = cell.fault_seed;
  return config;
}

ExperimentResult RunCell(const CellSpec& cell, const FreezeEffectModel& effect,
                         const harness::HarnessArgs& args, size_t total_runs,
                         harness::RunContext& context) {
  ExperimentConfig config = CellConfig(cell, effect);
  // --trace / --postmortem-dir: record the run's timeline and dump
  // postmortems on anomalies. Observation-only — all metrics below are
  // bit-identical with or without the recorder.
  bench::ApplyObsArgs(config, args,
                      std::string(cell.arm.name) + "/" + cell.preset,
                      context.index(), total_runs);
  // --replay / --record / --budget-schedule: optional trace arm and P(t).
  // Recording is a pass-through decorator, so all metrics stay
  // bit-identical with or without it.
  bench::ApplyTraceArgs(config, args, context.index(), total_runs);
  ExperimentResult result = RunExperimentToResult(config);
  bench::ReportArtifacts(context, result.artifacts);

  context.Metric("violations", result.experiment.violations);
  context.Metric("ctl_violations", result.control.violations);
  context.Metric("breaker_tripped", result.breaker_tripped ? 1.0 : 0.0);
  context.Metric("P_max", result.experiment.p_max);
  context.Metric("u_mean", result.experiment.u_mean);
  context.Metric("jobs_completed", static_cast<double>(result.jobs_completed));
  context.Metric("throughput_ratio", result.throughput_ratio);
  context.Metric("degraded_ticks", static_cast<double>(result.degraded_ticks));
  context.Metric("stale_fallbacks",
                 static_cast<double>(result.stale_fallbacks));
  context.Metric("blackout_skips", static_cast<double>(result.blackout_skips));
  context.Metric("rpc_giveups", static_cast<double>(result.rpc_giveups));
  context.Metric("dropped_samples",
                 static_cast<double>(result.fault_counts.dropped_samples));
  context.Metric("telemetry_stalls",
                 static_cast<double>(result.fault_counts.telemetry_stalls));
  context.Metric("rpc_failures",
                 static_cast<double>(result.fault_counts.rpc_failures));

  bench::NoteF(context,
               "%s/%s: adversity seen: stalls=%llu dropped=%llu spikes=%llu "
               "blackout_reads=%llu rpc_fail=%llu/%llu\n",
               cell.arm.name, cell.preset.c_str(),
               static_cast<unsigned long long>(
                   result.fault_counts.telemetry_stalls),
               static_cast<unsigned long long>(
                   result.fault_counts.dropped_samples),
               static_cast<unsigned long long>(
                   result.fault_counts.noise_spikes),
               static_cast<unsigned long long>(
                   result.fault_counts.blackout_reads),
               static_cast<unsigned long long>(
                   result.fault_counts.rpc_failures),
               static_cast<unsigned long long>(
                   result.fault_counts.rpc_attempts));
  bench::NoteF(context,
               "%s/%s: controller response: degraded=%llu (stale=%llu "
               "blackout=%llu) rpc_giveups=%llu\n",
               cell.arm.name, cell.preset.c_str(),
               static_cast<unsigned long long>(result.degraded_ticks),
               static_cast<unsigned long long>(result.stale_fallbacks),
               static_cast<unsigned long long>(result.blackout_skips),
               static_cast<unsigned long long>(result.rpc_giveups));
  return result;
}

bool SameChaosOutcome(const ExperimentResult& a, const ExperimentResult& b) {
  return a.journal.ToJson() == b.journal.ToJson() &&
         a.fault_counts.telemetry_stalls == b.fault_counts.telemetry_stalls &&
         a.fault_counts.dropped_samples == b.fault_counts.dropped_samples &&
         a.fault_counts.noise_spikes == b.fault_counts.noise_spikes &&
         a.fault_counts.blackout_reads == b.fault_counts.blackout_reads &&
         a.fault_counts.rpc_attempts == b.fault_counts.rpc_attempts &&
         a.fault_counts.rpc_failures == b.fault_counts.rpc_failures &&
         a.experiment.p_max == b.experiment.p_max &&
         a.experiment.violations == b.experiment.violations &&
         a.jobs_completed == b.jobs_completed;
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Chaos grid",
                "controller robustness under fault injection, rO=0.25",
                kSeed);

  FreezeEffectModel effect = bench::CalibrateEffectModel(
      kSeed, /*target_power=*/0.97, /*ro=*/0.25, /*verbose=*/true);

  const std::vector<ArmSpec> arms = {
      {"light", 0.91, 0.035},
      {"heavy", 1.00, 0.015},
  };
  std::vector<CellSpec> cells;
  for (const ArmSpec& arm : arms) {
    uint64_t workload_seed = kSeed + (arm.target_power > 0.95 ? 1 : 2);
    size_t p = 0;
    for (const std::string& preset : faults::PresetNames()) {
      cells.push_back(CellSpec{arm, preset, workload_seed, kFaultSeed + p++});
    }
  }

  auto grid = harness::RunGrid(
      cells,
      [](const CellSpec& cell, size_t) {
        return harness::GridMeta{
            std::string(cell.arm.name) + "/" + cell.preset,
            cell.workload_seed};
      },
      [&effect, &args, total = cells.size()](const CellSpec& cell,
                                             harness::RunContext& context) {
        return RunCell(cell, effect, args, total, context);
      },
      args.runner);
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }

  auto find = [&](const char* arm, const char* preset) -> const
      ExperimentResult& {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (std::strcmp(cells[i].arm.name, arm) == 0 &&
          cells[i].preset == preset) {
        return grid.values[i];
      }
    }
    AMPERE_CHECK(false) << "missing cell " << arm << "/" << preset;
    std::abort();
  };

  bench::Section("robustness table (experiment group, per preset)");
  std::printf("%8s %10s %8s %8s %8s %10s %10s %9s %9s\n", "arm", "preset",
              "P_max", "violate", "breaker", "jobs", "capacity", "degraded",
              "giveups");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& cell = cells[i];
    const ExperimentResult& r = grid.values[i];
    const ExperimentResult& baseline = find(cell.arm.name, "none");
    double capacity = baseline.jobs_completed > 0
                          ? static_cast<double>(r.jobs_completed) /
                                static_cast<double>(baseline.jobs_completed)
                          : 0.0;
    std::printf("%8s %10s %8.3f %8d %8s %10llu %9.1f%% %9llu %9llu\n",
                cell.arm.name, cell.preset.c_str(), r.experiment.p_max,
                r.experiment.violations, r.breaker_tripped ? "TRIP" : "ok",
                static_cast<unsigned long long>(r.jobs_completed),
                100.0 * capacity,
                static_cast<unsigned long long>(r.degraded_ticks),
                static_cast<unsigned long long>(r.rpc_giveups));
  }

  const ExperimentResult& heavy_none = find("heavy", "none");
  const ExperimentResult& heavy_mod = find("heavy", "moderate");
  const ExperimentResult& light_none = find("light", "none");
  const ExperimentResult& light_mod = find("light", "moderate");
  const ExperimentResult& heavy_heavy = find("heavy", "heavy");

  bench::Section("shape checks: graceful degradation");
  bool no_trips = true;
  for (const ExperimentResult& r : grid.values) {
    no_trips = no_trips && !r.breaker_tripped;
  }
  bench::ShapeCheck(no_trips,
                    "no breaker trips anywhere on the grid, even under the "
                    "heavy chaos preset");
  bench::ShapeCheck(!heavy_mod.breaker_tripped && !light_mod.breaker_tripped,
                    "moderate chaos trips zero breakers on either arm "
                    "(acceptance bar)");
  // Budget-violation *minutes* may creep up slightly — stale fallback holds
  // last-known-good for up to 90 s — but the controller must stay an order
  // of magnitude better than running uncontrolled, and far from doubling.
  bench::ShapeCheck(heavy_mod.experiment.violations <=
                            heavy_mod.control.violations / 5 &&
                        heavy_mod.experiment.violations <=
                            2 * heavy_none.experiment.violations,
                    "moderate chaos keeps heavy-load violations bounded "
                    "(<< uncontrolled, < 2x the fault-free baseline)");
  // Capacity: both completed-job count and the within-run exp/ctl
  // throughput ratio (which isolates the controller's share of any loss —
  // both groups see the same arrivals).
  double heavy_capacity =
      static_cast<double>(heavy_mod.jobs_completed) /
      static_cast<double>(heavy_none.jobs_completed);
  double light_capacity =
      static_cast<double>(light_mod.jobs_completed) /
      static_cast<double>(light_none.jobs_completed);
  double heavy_rt = heavy_mod.throughput_ratio / heavy_none.throughput_ratio;
  double light_rt = light_mod.throughput_ratio / light_none.throughput_ratio;
  bench::ShapeCheck(heavy_capacity >= 0.90 && light_capacity >= 0.90 &&
                        heavy_rt >= 0.90 && light_rt >= 0.90,
                    "moderate chaos costs <= 10% capacity vs fault-free, in "
                    "jobs completed and in exp/ctl throughput ratio "
                    "(acceptance bar)");
  bench::ShapeCheck(heavy_mod.experiment.u_mean >=
                        heavy_none.experiment.u_mean,
                    "under chaos the controller leans conservative: widened "
                    "E_t freezes at least as much as the fault-free run");
  bench::ShapeCheck(heavy_mod.degraded_ticks > 0 &&
                        heavy_mod.stale_fallbacks > 0,
                    "the degraded paths actually exercised (stale fallback "
                    "fired under moderate chaos)");
  bench::ShapeCheck(heavy_mod.fault_counts.dropped_samples > 0 &&
                        heavy_mod.fault_counts.rpc_failures > 0,
                    "moderate preset injected both >=5% sample dropout and "
                    ">=1% RPC failures");
  bench::ShapeCheck(heavy_heavy.degraded_ticks > heavy_mod.degraded_ticks,
                    "degraded-tick count scales with chaos intensity");
  bench::ShapeCheck(light_mod.experiment.violations == 0,
                    "light workload stays violation-free under moderate "
                    "chaos");

  bench::Section("determinism cross-check (same seeds => same chaos)");
  // Replay the noisiest cell serially, outside the pool, and require the
  // journal summary and every fault counter to reproduce exactly.
  CellSpec replay_cell{arms[1], "heavy", kSeed + 1,
                       kFaultSeed + faults::PresetNames().size() - 1};
  ExperimentConfig replay_config = CellConfig(replay_cell, effect);
  // Mirror the grid's workload source and P(t) (but not --record: the
  // cross-check must not clobber the grid cell's artifact) so the
  // bit-identical claim holds under --replay / --budget-schedule too.
  bench::ApplyBudgetScheduleArg(replay_config, args);
  replay_config.trace.replay_path = args.replay_trace_path;
  ExperimentResult replay = RunExperimentToResult(replay_config);
  bench::ShapeCheck(SameChaosOutcome(heavy_heavy, replay),
                    "heavy/heavy cell replays bit-identically (journal "
                    "summary + fault counts + outcomes)");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
