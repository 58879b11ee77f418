// Shared setup and printing helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper. Benches
// print self-describing text: a header naming the paper artifact, the
// configuration (including the RNG seed for bit-exact reruns), the series or
// rows, and a SHAPE CHECK paragraph stating which qualitative property of
// the paper's result should hold.

// Grid-shaped benches (sweeps, ablations, A/B arms) run their independent
// day-long simulations in PARALLEL through the scenario harness
// (src/harness): harness::RunGrid hands each run to one of N worker threads
// (hardware_concurrency; --jobs=N or AMPERE_JOBS override), captures
// per-run detail into result rows instead of interleaved stdout, and
// returns both the typed results (for shape checks) and a ResultTable,
// which harness::EmitResults prints and writes for --csv / --json. Results
// are bit-identical to a serial run: every scenario owns its Simulation
// and RNG streams. This header holds the paper configurations and the
// per-run flag plumbing the benches share.
//
// Observability: every bench also accepts `--log-level=debug|info|warning|
// error|off` (or the AMPERE_LOG_LEVEL environment variable; the flag wins)
// to reach the controller's kDebug decision lines without recompiling, and
// `--obs` to capture a per-run obs section — metrics snapshot, span
// profile, journal summary gauges — into the --json output. Both are
// handled by harness::ParseHarnessArgs; see docs/observability.md.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/harness/grid.h"
#include "src/harness/runner.h"

namespace ampere {
namespace bench {

// The paper's controlled-experiment row: 400+ homogeneous servers (§4.1.1).
inline TopologyConfig PaperRowTopology() {
  TopologyConfig config;
  config.num_rows = 1;
  config.racks_per_row = 10;
  config.servers_per_rack = 42;  // 420 servers.
  config.server_capacity = Resources{16.0, 64.0};
  config.power_model.rated_watts = 250.0;
  config.power_model.idle_fraction = 0.65;
  return config;
}

// Baseline experiment configuration used by the §4 benches; individual
// benches override the workload level and rO.
inline ExperimentConfig PaperExperimentConfig(uint64_t seed,
                                              double target_power,
                                              double ro) {
  ExperimentConfig config;
  config.seed = seed;
  config.topology = PaperRowTopology();
  config.over_provision_ratio = ro;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, target_power, ro);
  config.warmup = SimTime::Hours(2);
  config.duration = SimTime::Hours(24);
  return config;
}

// Runs the Fig. 5 calibration procedure on a fresh harness and returns the
// fitted effect model. This is the kr every closed-loop bench deploys, so
// the pipeline mirrors production: measure f(u), fit, control. Silent by
// default so it can run inside parallel grid scenarios; callers report the
// fit through their RunContext (or printf it themselves when serial).
inline FreezeEffectModel CalibrateEffectModel(uint64_t seed,
                                              double target_power,
                                              double ro,
                                              bool verbose = false) {
  ExperimentConfig config = PaperExperimentConfig(seed, target_power, ro);
  config.enable_ampere = false;
  config.warmup = SimTime::Hours(1);
  ControlledExperiment calibration(config);
  std::vector<double> levels{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  auto samples = calibration.RunFuCalibration(levels, SimTime::Minutes(5),
                                              SimTime::Minutes(25),
                                              SimTime::Hours(24));
  FreezeEffectModel model = FreezeEffectModel::Fit(samples);
  if (verbose) {
    std::printf("calibration: fitted f(u) = %.4f * u  (R^2 = %.3f, n = %zu)\n",
                model.kr(), model.fit_r_squared(), samples.size());
  }
  return model;
}

inline void Header(const std::string& artifact, const std::string& title,
                   uint64_t seed) {
  std::printf("=================================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), title.c_str());
  std::printf("(Ampere reproduction; seed=%llu)\n",
              static_cast<unsigned long long>(seed));
  std::printf("=================================================================\n");
}

inline void Section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

// Copies the harness --trace / --postmortem-dir destinations into one run's
// ExperimentConfig::obs, turning the flight recorder on for that run. The
// trace path is run-suffixed (ArtifactPathForRun) so parallel grids never
// clobber one file; `run_label` names the run inside the artifacts. No-op
// when neither flag was given, keeping flag-free output byte-identical.
inline void ApplyObsArgs(ExperimentConfig& config,
                         const harness::HarnessArgs& args,
                         const std::string& run_label, size_t run_index,
                         size_t total_runs) {
  if (args.trace_path.empty() && args.postmortem_dir.empty()) {
    return;
  }
  config.obs.flight_recorder = true;
  config.obs.run_label = run_label;
  if (!args.trace_path.empty()) {
    config.obs.trace_path =
        harness::ArtifactPathForRun(args.trace_path, run_index, total_runs);
  }
  config.obs.postmortem_dir = args.postmortem_dir;
}

// Copies the parsed --budget-schedule into one run's
// ExperimentConfig::budget_schedule. No-op when the flag was absent (the
// schedule stays constant and adds no simulation events).
inline void ApplyBudgetScheduleArg(ExperimentConfig& config,
                                   const harness::HarnessArgs& args) {
  if (args.budget_schedule.has_value()) {
    config.budget_schedule = *args.budget_schedule;
  }
}

// Copies the harness --replay / --record workload-trace destinations into
// one run's ExperimentConfig::trace, plus the --budget-schedule. The
// record path is run-suffixed (ArtifactPathForRun) so parallel grids never
// clobber one file. No-op when none of the flags were given, keeping
// flag-free output byte-identical.
inline void ApplyTraceArgs(ExperimentConfig& config,
                           const harness::HarnessArgs& args, size_t run_index,
                           size_t total_runs) {
  ApplyBudgetScheduleArg(config, args);
  if (!args.replay_trace_path.empty()) {
    config.trace.replay_path = args.replay_trace_path;
  }
  if (!args.record_trace_path.empty()) {
    config.trace.record = true;
    config.trace.record_path = harness::ArtifactPathForRun(
        args.record_trace_path, run_index, total_runs);
  }
}

// Reports every artifact path a run wrote into its ResultRow.
inline void ReportArtifacts(harness::RunContext& context,
                            std::span<const std::string> artifacts) {
  for (const std::string& path : artifacts) {
    context.Artifact(path);
  }
}

// Prints (x, y) pairs as two columns.
inline void PrintXy(const std::string& x_label, const std::string& y_label,
                    std::span<const std::pair<double, double>> points) {
  std::printf("%14s %14s\n", x_label.c_str(), y_label.c_str());
  for (const auto& [x, y] : points) {
    std::printf("%14.4f %14.4f\n", x, y);
  }
}

// Prints a series as one row per `stride` samples.
inline void PrintSeries(const std::string& x_label,
                        const std::string& y_label,
                        std::span<const double> values, int stride = 1,
                        double x_scale = 1.0) {
  std::printf("%14s %14s\n", x_label.c_str(), y_label.c_str());
  for (size_t i = 0; i < values.size(); i += static_cast<size_t>(stride)) {
    std::printf("%14.2f %14.4f\n", static_cast<double>(i) * x_scale,
                values[i]);
  }
}

inline void ShapeCheck(bool ok, const std::string& claim) {
  std::printf("SHAPE CHECK [%s]: %s\n", ok ? "PASS" : "FAIL", claim.c_str());
}

// For the single-run figure benches, which take no flags: any argument is
// an error, reported as "<argv0>: takes no flags" on stderr with exit
// status 2 (the harness's flag-error status), instead of being ignored.
inline void RequireNoArgs(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "%s: takes no flags\n", argv[0]);
    std::exit(2);
  }
}

// printf-style append to a RunContext's notes. The format string is always
// a literal at the call sites; the template indirection hides that from the
// compiler's checker, hence the local diagnostic suppression.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
template <typename... Args>
void NoteF(harness::RunContext& context, const char* format, Args... args) {
  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  context.Note(buffer);
}
#pragma GCC diagnostic pop

}  // namespace bench
}  // namespace ampere

#endif  // BENCH_BENCH_COMMON_H_
