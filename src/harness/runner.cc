#include "src/harness/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/log_capture.h"
#include "src/common/thread_pool.h"
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
// propagating across the pool.
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

}  // namespace

int ResolveJobs(int requested_jobs) {
  if (requested_jobs > 0) {
    return requested_jobs;
  }
  if (const char* env = std::getenv("AMPERE_JOBS"); env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ScenarioRunner::ScenarioRunner(const RunnerOptions& options)
    : options_(options) {}

ResultTable ScenarioRunner::Run(std::span<const Scenario> scenarios) const {
  // No more workers than runs: a grid of N scenarios never starts more than
  // N threads, whatever --jobs or AMPERE_JOBS asked for.
  const size_t runs = std::max<size_t>(1, scenarios.size());
  const int jobs = static_cast<int>(
      std::min(static_cast<size_t>(ResolveJobs(options_.jobs)), runs));
  const bool capture_logs = options_.capture_logs;

  const bool capture_obs = options_.capture_obs;

  ResultTable table;
  table.Resize(scenarios.size());
  table.set_jobs(jobs);

  auto total_start = std::chrono::steady_clock::now();
  {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const Scenario* scenario = &scenarios[i];
      ResultRow* row = &table.row(i);  // Each task owns exactly its slot.
      pool.Submit([scenario, row, i, capture_logs, capture_obs] {
        row->index = i;
        row->scenario = scenario->name;
        row->seed = scenario->seed;
        RunContext context(i, scenario->seed);
        // One private registry per run (scenario bodies are single-threaded,
        // so every instrumented write the body triggers stays on this
        // worker thread and lands here — isolated from concurrent runs).
        obs::MetricsRegistry run_registry;
        std::optional<obs::ScopedMetricsRegistry> obs_scope;
        if (capture_obs) obs_scope.emplace(&run_registry);
        auto run_start = std::chrono::steady_clock::now();
        if (capture_logs) {
          ScopedLogCapture capture;
          RunBody(*scenario, context, row);
          row->log = capture.TakeOutput();
        } else {
          RunBody(*scenario, context, row);
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
      });
    }
    pool.Wait();
  }
  table.set_total_wall_ms(ElapsedMs(total_start));
  return table;
}

ResultTable RunScenarios(std::span<const Scenario> scenarios,
                         const RunnerOptions& options) {
  return ScenarioRunner(options).Run(scenarios);
}

HarnessArgs ParseHarnessArgs(int argc, char** argv) {
  HarnessArgs args;
  // Environment first, flags second: --log-level below overrides this,
  // matching the --jobs / AMPERE_JOBS precedence in ResolveJobs.
  ApplyLogLevelFromEnv();
  auto value_of = [&](std::string_view arg, std::string_view flag,
                      int& i) -> const char* {
    // --flag=value
    if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
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
      args.runner.jobs = std::atoi(v);
      AMPERE_CHECK(args.runner.jobs > 0) << "--jobs needs a positive integer";
    } else if (const char* csv = value_of(arg, "--csv", i)) {
      args.csv_path = csv;
    } else if (const char* json = value_of(arg, "--json", i)) {
      args.json_path = json;
    } else if (const char* level = value_of(arg, "--log-level", i)) {
      LogLevel parsed;
      AMPERE_CHECK(ParseLogLevel(level, &parsed))
          << "--log-level wants debug|info|warning|error|off, got '" << level
          << "'";
      SetLogLevel(parsed);
    } else if (const char* preset = value_of(arg, "--faults", i)) {
      auto config = faults::PresetByName(preset);
      if (!config.has_value()) {
        std::string known;
        for (const std::string& name : faults::PresetNames()) {
          if (!known.empty()) known += "|";
          known += name;
        }
        AMPERE_CHECK(false) << "--faults wants " << known << ", got '"
                            << preset << "'";
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
      args.budget_schedule_spec = sched;
    } else if (const char* store = value_of(arg, "--store-dir", i)) {
      args.store_dir = store;
    } else if (const char* budget = value_of(arg, "--hot-budget", i)) {
      const int parsed = std::atoi(budget);
      AMPERE_CHECK(parsed >= 2)
          << "--hot-budget wants a sample count >= 2, got '" << budget << "'";
      args.hot_budget_samples = static_cast<size_t>(parsed);
    } else if (arg == "--obs") {
      args.runner.capture_obs = true;
    } else if (arg == "--no-notes") {
      args.print_notes = false;
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
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
