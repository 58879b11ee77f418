#include "src/harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/log_capture.h"
#include "src/faults/presets.h"
#include "src/obs/metrics.h"

namespace ampere {
namespace harness {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Runs the body, converting exceptions into a failed row instead of
// escaping the worker thread.
void RunBody(const Scenario& scenario, RunContext& context, ResultRow* row) {
  try {
    AMPERE_CHECK(scenario.body != nullptr)
        << "scenario '" << scenario.name << "' has no body";
    scenario.body(context);
  } catch (const std::exception& e) {
    row->ok = false;
    row->error = e.what();
  } catch (...) {
    row->ok = false;
    row->error = "unknown exception";
  }
}

// Runs one scenario on the calling worker thread and fills its row.
void RunOne(const Scenario& scenario, size_t index, bool capture_obs,
            ResultRow* row) {
  row->index = index;
  row->scenario = scenario.name;
  row->seed = scenario.seed;
  RunContext context(index, scenario.seed);
  // One private registry per run (scenario bodies are single-threaded, so
  // every instrumented write the body triggers stays on this worker thread
  // and lands here — isolated from concurrent runs).
  obs::MetricsRegistry run_registry;
  std::optional<obs::ScopedMetricsRegistry> obs_scope;
  if (capture_obs) obs_scope.emplace(&run_registry);
  auto run_start = std::chrono::steady_clock::now();
  {
    ScopedLogCapture capture;
    RunBody(scenario, context, row);
    row->log = capture.TakeOutput();
  }
  row->wall_ms = ElapsedMs(run_start);
  if (capture_obs) {
    obs::MetricsSnapshot snapshot = run_registry.Snapshot();
    if (!snapshot.empty()) row->obs_json = snapshot.ToJson();
    obs_scope.reset();
  }
  row->metrics = std::move(context.metrics());
  row->notes = std::move(context.notes());
  row->artifacts = std::move(context.artifacts());
}

}  // namespace

int ResolveJobs(int requested_jobs) {
  if (requested_jobs > 0) {
    return requested_jobs;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ResultTable RunScenarios(std::span<const Scenario> scenarios,
                         const RunnerOptions& options) {
  // No more workers than runs: a grid of N scenarios never starts more than
  // N threads, whatever --jobs or AMPERE_JOBS asked for.
  const size_t runs = std::max<size_t>(1, scenarios.size());
  const int jobs = static_cast<int>(
      std::min(static_cast<size_t>(ResolveJobs(options.jobs)), runs));

  ResultTable table;
  table.Resize(scenarios.size());
  table.set_jobs(jobs);

  auto total_start = std::chrono::steady_clock::now();
  // Each worker claims the next unstarted scenario until none is left and
  // writes exactly that scenario's row; the join publishes the rows.
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < scenarios.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      RunOne(scenarios[i], i, options.capture_obs, &table.row(i));
    }
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back(worker);
    }
  }  // Each jthread joins as the vector is destroyed.
  table.set_total_wall_ms(ElapsedMs(total_start));
  return table;
}

bool EmitResults(const ResultTable& table, const HarnessArgs& args) {
  std::printf("[harness] %zu runs, jobs=%d, total %.0f ms\n\n", table.size(),
              table.jobs(), table.total_wall_ms());
  std::printf("%s", table.ToText().c_str());
  bool all_ok = true;
  for (const ResultRow& row : table.rows()) {
    if (!row.ok) {
      std::printf("RUN FAILED %s: %s\n", row.scenario.c_str(),
                  row.error.c_str());
      all_ok = false;
    }
  }
  if (args.print_notes) {
    for (const ResultRow& row : table.rows()) {
      if (!row.notes.empty()) {
        std::printf("\n--- %s ---\n%s", row.scenario.c_str(),
                    row.notes.c_str());
      }
    }
  }
  if (!args.csv_path.empty()) {
    WriteFile(args.csv_path, table.ToCsv());
    std::printf("wrote %s\n", args.csv_path.c_str());
  }
  if (!args.json_path.empty()) {
    WriteFile(args.json_path, table.ToJson());
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return all_ok;
}

HarnessArgsResult TryParseHarnessArgs(int argc, char** argv) {
  HarnessArgsResult result;
  HarnessArgs& args = result.args;
  std::optional<LogLevel> log_level;
  auto fail = [&result](std::string flag, std::string message) {
    result.error = FlagError{std::move(flag), std::move(message)};
    return std::move(result);
  };
  // The environment first; a --jobs flag below overrides it.
  if (const char* env = std::getenv("AMPERE_JOBS"); env != nullptr) {
    const std::optional<int> jobs = ParseFlagNumber(
        std::string_view(env), 1, std::numeric_limits<int>::max());
    if (!jobs.has_value()) {
      return fail("AMPERE_JOBS",
                  "AMPERE_JOBS needs a positive integer, got '" +
                      std::string(env) + "'");
    }
    args.runner.jobs = *jobs;
  }
  auto value_of = [&](std::string_view arg, std::string_view flag,
                      int& i) -> const char* {
    // --flag=value (an empty value is a value: `--jobs=` is an error, not a
    // positional)
    if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
        arg[flag.size()] == '=') {
      return argv[i] + flag.size() + 1;
    }
    // --flag value
    if (arg == flag && i + 1 < argc) {
      return argv[++i];
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (const char* v = value_of(arg, "--jobs", i)) {
      const std::optional<int> jobs =
          ParseFlagNumber(v, 1, std::numeric_limits<int>::max());
      if (!jobs.has_value()) {
        return fail("--jobs", "--jobs needs a positive integer, got '" +
                                  std::string(v) + "'");
      }
      args.runner.jobs = *jobs;
    } else if (const char* csv = value_of(arg, "--csv", i)) {
      args.csv_path = csv;
    } else if (const char* json = value_of(arg, "--json", i)) {
      args.json_path = json;
    } else if (const char* level = value_of(arg, "--log-level", i)) {
      LogLevel parsed;
      if (!ParseLogLevel(level, &parsed)) {
        return fail("--log-level",
                    "--log-level wants debug|info|warning|error|off, got '" +
                        std::string(level) + "'");
      }
      log_level = parsed;
    } else if (const char* preset = value_of(arg, "--faults", i)) {
      auto config = faults::PresetByName(preset);
      if (!config.has_value()) {
        std::string known;
        for (const std::string& name : faults::PresetNames()) {
          if (!known.empty()) known += "|";
          known += name;
        }
        return fail("--faults", "--faults wants " + known + ", got '" +
                                    std::string(preset) + "'");
      }
      args.faults_preset = preset;
      args.faults = *config;
    } else if (const char* trace = value_of(arg, "--trace", i)) {
      args.trace_path = trace;
    } else if (const char* dir = value_of(arg, "--postmortem-dir", i)) {
      args.postmortem_dir = dir;
    } else if (const char* replay = value_of(arg, "--replay", i)) {
      args.replay_trace_path = replay;
    } else if (const char* record = value_of(arg, "--record", i)) {
      args.record_trace_path = record;
    } else if (const char* sched = value_of(arg, "--budget-schedule", i)) {
      BudgetSchedule schedule;
      std::string error;
      if (!ParseBudgetSchedule(sched, &schedule, &error)) {
        return fail("--budget-schedule", "--budget-schedule: " + error);
      }
      args.budget_schedule = std::move(schedule);
    } else if (arg == "--obs") {
      args.runner.capture_obs = true;
    } else if (arg == "--no-notes") {
      args.print_notes = false;
    } else {
      args.positional.emplace_back(arg);
    }
  }
  // Environment first, flag second, matching --jobs over AMPERE_JOBS.
  ApplyLogLevelFromEnv();
  if (log_level.has_value()) {
    SetLogLevel(*log_level);
  }
  return result;
}

HarnessArgs ParseHarnessArgs(int argc, char** argv) {
  HarnessArgsResult result = TryParseHarnessArgs(argc, argv);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "ampere",
                 result.error->message.c_str());
    std::exit(2);
  }
  return std::move(result.args);
}

std::string ArtifactPathForRun(const std::string& base, size_t run_index,
                               size_t total_runs) {
  if (total_runs <= 1) {
    return base;
  }
  const std::string suffix = "_run" + std::to_string(run_index);
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + suffix;  // No extension (or a dot only in a directory).
  }
  std::string out;
  out.reserve(base.size() + suffix.size());
  out.append(base, 0, dot);
  out += suffix;
  out.append(base, dot, std::string::npos);
  return out;
}

}  // namespace harness
}  // namespace ampere
