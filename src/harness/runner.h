// Parallel scenario runner.
//
// RunScenarios executes a set of independent scenarios on plain worker
// threads — N workers (hardware_concurrency by default, `--jobs` flag or
// AMPERE_JOBS env override read by TryParseHarnessArgs, never more than the
// scenario count), each claiming the next unstarted scenario until none is
// left — and assembles the per-run structured results into a ResultTable
// in deterministic submission order. Each run gets a ScopedLogCapture so
// the global logger never interleaves lines from concurrent runs; the
// captured text lands in the run's result row.
//
// Determinism contract: scenario bodies are pure functions of their config
// and seed (the core layer owns all RNG streams per instance), so the
// metric content of the ResultTable is bit-identical for any job count.
// Only wall-clock fields differ; ResultTable::SameData ignores them.

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <charconv>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "src/control/budget_schedule.h"
#include "src/faults/fault_plan.h"
#include "src/harness/result_table.h"
#include "src/harness/scenario.h"

namespace ampere {
namespace harness {

struct RunnerOptions {
  // <= 0 selects std::thread::hardware_concurrency() (TryParseHarnessArgs
  // fills this from --jobs or AMPERE_JOBS). RunScenarios caps the workers
  // at the number of scenarios and reports the capped count in
  // ResultTable::jobs.
  int jobs = 0;
  // Install a per-run obs::ScopedMetricsRegistry so every counter, gauge,
  // histogram, and span the run touches lands in an isolated snapshot,
  // rendered into ResultRow::obs_json (the "obs" section of ToJson). Off
  // by default: runs that don't ask for it pay nothing, and existing JSON
  // output stays byte-identical.
  bool capture_obs = false;
};

// Resolves a requested job count to the effective worker count (>= 1):
// `requested_jobs` if positive, else the hardware concurrency.
int ResolveJobs(int requested_jobs);

// Runs all scenarios; blocks until done. A scenario body that throws
// marks its row !ok with the exception text — it never tears down the
// whole grid.
ResultTable RunScenarios(std::span<const Scenario> scenarios,
                         const RunnerOptions& options = {});

// --- Command-line plumbing shared by benches and tools ---
//
// Recognized flags (everything else lands in `positional`):
//   --jobs=N | --jobs N     worker count; beats AMPERE_JOBS=N from the
//                           environment, which is parsed the same way
//                           (default: see RunnerOptions)
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
//                           diurnal:.., ';'-separated), parsed here so a
//                           malformed spec is a flag error
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
  // --replay / --record: workload-trace plumbing (empty = off); trace-aware
  // benches translate them into ExperimentConfig::trace.
  std::string replay_trace_path;
  std::string record_trace_path;
  // --budget-schedule: the parsed P(t) (nullopt = flag absent); benches copy
  // it into ExperimentConfig::budget_schedule.
  std::optional<BudgetSchedule> budget_schedule;
  std::vector<std::string> positional;
};

// A recognized flag whose value does not parse: the flag as spelled in the
// usage above ("--jobs", or "AMPERE_JOBS" for the environment variable) and
// a message naming the rejected value.
struct FlagError {
  std::string flag;
  std::string message;
};

// Structured parse outcome. `args` is meaningful only when ok().
struct HarnessArgsResult {
  HarnessArgs args;
  std::optional<FlagError> error;

  bool ok() const { return !error.has_value(); }
};

// All of `text` as a base-10 number in [lo, hi]; nullopt for anything else:
// empty text, a leading blank or '+', trailing characters, a sign on an
// unsigned type, overflow, NaN and out-of-range values. Every numeric flag
// parser shares it (the harness flags below, the example CLIs), so
// `--jobs=4abc` and `--target=abc` fail the same way. Pass
// std::numeric_limits<double>::denorm_min() as `lo` for "> 0".
template <typename T>
std::optional<T> ParseFlagNumber(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

// Parses the flags above without aborting. Numbers must be whole base-10
// strings in range (`--jobs=4abc`, `AMPERE_JOBS=1abc` and overflowing values
// are errors), --log-level/--faults must name a known level/preset, and
// --budget-schedule must parse.
// On success it also applies the log level: AMPERE_LOG_LEVEL from the
// environment if set, then --log-level on top (flag beats environment) —
// as --jobs beats AMPERE_JOBS. On error it changes no global state.
HarnessArgsResult TryParseHarnessArgs(int argc, char** argv);

// TryParseHarnessArgs for a main(): on a FlagError it prints the message to
// stderr and exits with status 2.
HarnessArgs ParseHarnessArgs(int argc, char** argv);

// Prints the assembled table (submission order), any failed runs, then each
// run's captured notes (unless --no-notes), then honours --csv / --json.
// Returns false if any run failed.
bool EmitResults(const ResultTable& table, const HarnessArgs& args);

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
