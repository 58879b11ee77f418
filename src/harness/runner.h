// Parallel scenario runner.
//
// Executes a set of independent scenarios on a work-stealing thread pool —
// one Simulation per worker at a time, N workers (hardware_concurrency by
// default, `--jobs` flag or AMPERE_JOBS env override) — and assembles the
// per-run structured results into a ResultTable in deterministic
// submission order. Each run gets a ScopedLogCapture so the global logger
// never interleaves lines from concurrent runs; the captured text lands in
// the run's result row.
//
// Determinism contract: scenario bodies are pure functions of their config
// and seed (the core layer owns all RNG streams per instance), so the
// metric content of the ResultTable is bit-identical for any job count.
// Only wall-clock fields differ; ResultTable::SameData ignores them.

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <span>
#include <string>
#include <vector>

#include "src/faults/fault_plan.h"
#include "src/harness/result_table.h"
#include "src/harness/scenario.h"

namespace ampere {
namespace harness {

struct RunnerOptions {
  // <= 0 selects the default: AMPERE_JOBS from the environment if set,
  // else std::thread::hardware_concurrency(). Run caps the workers at the
  // number of scenarios and reports the capped count in ResultTable::jobs.
  int jobs = 0;
  // Install a per-run ScopedLogCapture (store logs in the row instead of
  // interleaving stderr).
  bool capture_logs = true;
  // Install a per-run obs::ScopedMetricsRegistry so every counter, gauge,
  // histogram, and span the run touches lands in an isolated snapshot,
  // rendered into ResultRow::obs_json (the "obs" section of ToJson). Off
  // by default: runs that don't ask for it pay nothing, and existing JSON
  // output stays byte-identical.
  bool capture_obs = false;
};

// Resolves a requested job count to the effective worker count (>= 1).
int ResolveJobs(int requested_jobs);

class ScenarioRunner {
 public:
  explicit ScenarioRunner(const RunnerOptions& options = {});

  // Runs all scenarios; blocks until done. A scenario body that throws
  // marks its row !ok with the exception text — it never tears down the
  // whole grid.
  ResultTable Run(std::span<const Scenario> scenarios) const;

 private:
  RunnerOptions options_;
};

// One-shot convenience wrapper.
ResultTable RunScenarios(std::span<const Scenario> scenarios,
                         const RunnerOptions& options = {});

// --- Command-line plumbing shared by benches and tools ---
//
// Recognized flags (everything else lands in `positional`):
//   --jobs=N | --jobs N     worker count (default: see RunnerOptions)
//   --csv=PATH | --csv PATH write the deterministic CSV table to PATH
//   --json=PATH             write the full JSON record (incl. timing)
//   --no-notes              suppress per-run notes on stdout
//   --obs                   capture per-run obs snapshots into the JSON
//   --log-level=LEVEL       global log threshold (debug|info|warning|
//                           error|off); overrides AMPERE_LOG_LEVEL, which
//                           ParseHarnessArgs applies first
//   --faults=PRESET         named chaos preset (none|light|moderate|heavy,
//                           src/faults/presets.h) applied by fault-aware
//                           benches to every run's ExperimentConfig::faults
//   --trace=PATH            obs-aware benches install a flight recorder per
//                           run and export its Chrome/Perfetto trace; PATH
//                           is run-suffixed (ArtifactPathForRun) when the
//                           bench runs more than one scenario, so --jobs>1
//                           grids never clobber one file
//   --postmortem-dir=DIR    obs-aware benches enable anomaly-triggered
//                           postmortem dumps into DIR (one JSON per trigger)
//   --replay=PATH           trace-aware benches drive the workload from the
//                           ampere.trace.v1 file at PATH instead of the
//                           synthetic generator (replaces --trace for the
//                           *workload* sense; --trace stays the Perfetto
//                           export flag)
//   --record=PATH           trace-aware benches record the generated
//                           workload and write an ampere.trace.v1 file;
//                           PATH is run-suffixed like --trace
//   --budget-schedule=SPEC  time-varying budget P(t); SPEC grammar is
//                           ParseBudgetSchedule's (step:.. / ramp:.. /
//                           diurnal:.., ';'-separated). Stored verbatim —
//                           benches parse it so the harness library keeps
//                           no control-layer dependency
//   --store-dir=DIR         storage-aware benches attach a persistent
//                           telemetry cold tier under DIR (run-suffixed via
//                           ArtifactPathForRun, so grids never share a
//                           store); off by default — RAM-only, goldens
//                           unchanged
//   --hot-budget=N          per-series hot-tier sample budget used with
//                           --store-dir (>= 2; 0/absent keeps the
//                           StorageSection default)
struct HarnessArgs {
  RunnerOptions runner;
  std::string csv_path;
  std::string json_path;
  bool print_notes = true;
  // --faults: the requested preset name and its resolved config. Benches
  // that support chaos runs copy `faults` into each scenario's experiment
  // config (typically overriding the seed per run); benches that don't are
  // unaffected. Defaults to "none" (all-zero config, any() == false).
  std::string faults_preset = "none";
  faults::FaultPlanConfig faults;
  // --trace / --postmortem-dir: observability artifact destinations (empty
  // = off). Benches that support them copy these into each scenario's
  // ExperimentConfig::obs, deriving the per-run trace path with
  // ArtifactPathForRun and reporting written files via RunContext::Artifact.
  std::string trace_path;
  std::string postmortem_dir;
  // --replay / --record / --budget-schedule: workload-trace and P(t)
  // plumbing (empty = off). Kept as raw strings here; trace-aware benches
  // translate them into ExperimentConfig::trace / budget_schedule.
  std::string replay_trace_path;
  std::string record_trace_path;
  std::string budget_schedule_spec;
  // --store-dir / --hot-budget: persistent telemetry cold tier (empty = off,
  // RAM-only). Storage-aware benches copy these into each scenario's
  // ExperimentConfig::storage via bench::ApplyStorageArgs, deriving the
  // per-run store directory with ArtifactPathForRun. hot_budget_samples = 0
  // keeps the StorageSection default.
  std::string store_dir;
  size_t hot_budget_samples = 0;
  std::vector<std::string> positional;
};

// Also applies the log level: AMPERE_LOG_LEVEL from the environment if set,
// then --log-level on top (flag beats environment) — mirroring how
// ResolveJobs treats --jobs/AMPERE_JOBS.
HarnessArgs ParseHarnessArgs(int argc, char** argv);

// Derives a collision-free per-run artifact path from a base path: run 0 of
// a single-scenario grid keeps `base` unchanged; otherwise "_run<N>" is
// inserted before the extension ("out/t.json" -> "out/t_run3.json", no
// extension appends). Deterministic in (base, run_index, total_runs), so
// the same grid names the same files at any job count.
std::string ArtifactPathForRun(const std::string& base, size_t run_index,
                               size_t total_runs);

}  // namespace harness
}  // namespace ampere

#endif  // SRC_HARNESS_RUNNER_H_
