// closed_loop_bench: one benchmark run of one workload, as one JSON line.
//
//   closed_loop_bench --workload NAME --seed N --mode run|trace [--short]
//
// --mode run builds the real driver (ControlledExperiment or
// CampusExperiment) several times to time set-up, runs the last one and
// reports the end-to-end figures. --mode trace runs the traced mirror
// (traced_loop.h) instead and reports per-layer figures. Both report the
// run's fingerprint and output checks; run.py compares them across
// processes. --short cuts the measured window to two simulated hours.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/traced_loop.h"
#include "perfbench/workloads.h"
#include "src/core/campus_experiment.h"
#include "src/core/experiment.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is sub-millisecond at paper scale, so one process times several
// constructions and reports their median.
constexpr int kSetupRepeats = 5;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The process's peak resident set (VmHWM) in MB, or -1 if unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// Minimal writer for one flat-or-nested JSON object on one line.
class JsonLine {
 public:
  JsonLine& Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonLine& Int(const char* key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonLine& Str(const char* key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  JsonLine& Obj(const char* key, const JsonLine& value) {
    return Raw(key, value.Text());
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  JsonLine& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_.append("\"").append(key).append("\": ").append(value);
    return *this;
  }
  std::string body_;
};

JsonLine FingerprintJson(const Fingerprint& fp) {
  JsonLine j;
  j.Int("events", fp.events)
      .Int("jobs_submitted", fp.jobs_submitted)
      .Int("jobs_completed", fp.jobs_completed)
      .Int("violation_minutes", static_cast<uint64_t>(fp.violation_minutes))
      .Num("gain_tpw", fp.gain_tpw);
  return j;
}

struct RunOutcome {
  Fingerprint fingerprint;
  bool breaker_tripped = false;
  bool journal_matches = true;
  int64_t control_violation_minutes = 0;  // The uncontrolled groups.
};

RunOutcome Outcome(ampere::ControlledExperiment& experiment,
                   const ampere::ExperimentResult& result) {
  RunOutcome out;
  out.fingerprint.events = experiment.sim().processed_events();
  out.fingerprint.jobs_submitted = result.jobs_submitted;
  out.fingerprint.jobs_completed = result.jobs_completed;
  out.fingerprint.violation_minutes = result.experiment.violations;
  out.fingerprint.gain_tpw = result.gain_tpw;
  out.control_violation_minutes = result.control.violations;
  out.breaker_tripped = result.breaker_tripped;
  out.journal_matches = JournalMatchesReport(result.journal, result.experiment);
  return out;
}

RunOutcome Outcome(ampere::CampusExperiment& experiment,
                   const ampere::CampusResult& result) {
  RunOutcome out;
  out.fingerprint.events = experiment.sim().processed_events();
  out.fingerprint.jobs_submitted = result.jobs_submitted;
  out.fingerprint.jobs_completed = result.jobs_completed;
  out.fingerprint.gain_tpw = result.gain_tpw;
  out.breaker_tripped = result.breaker_tripped;
  for (const ampere::CampusDcResult& dc : result.dcs) {
    out.fingerprint.violation_minutes += dc.experiment.violations;
    out.control_violation_minutes += dc.control.violations;
    out.journal_matches = out.journal_matches &&
                          JournalMatchesReport(dc.journal, dc.experiment);
  }
  return out;
}

// Times kSetupRepeats constructions of `Experiment` from `config` (the last
// one is kept and run), then the run itself.
template <typename Experiment>
void TimeDriver(const Workload& workload, JsonLine& out) {
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Experiment throwaway(workload.config);
    setups.push_back(Seconds(Clock::now() - t0));
  }
  const Clock::time_point t0 = Clock::now();
  Experiment experiment(workload.config);
  setups.push_back(Seconds(Clock::now() - t0));

  const Clock::time_point t1 = Clock::now();
  const double cpu0 = ThreadCpuSeconds();
  const auto result = experiment.Run();
  const double run_cpu_s = ThreadCpuSeconds() - cpu0;
  const double run_s = Seconds(Clock::now() - t1);
  const double peak_rss_mb = PeakRssMb();

  const RunOutcome outcome = Outcome(experiment, result);
  const double sim_minutes =
      (workload.config.warmup + workload.config.duration).minutes();
  out.Num("setup_s", Median(setups))
      .Num("run_s", run_s)
      .Num("run_cpu_s", run_cpu_s)
      .Num("sim_minutes", sim_minutes)
      .Num("measured_days", workload.config.duration.hours() / 24.0)
      .Num("server_min_per_s",
           static_cast<double>(workload.servers) * sim_minutes / run_cpu_s)
      .Num("peak_rss_mb", peak_rss_mb)
      .Bool("breaker_tripped", outcome.breaker_tripped)
      .Bool("journal_matches", outcome.journal_matches)
      .Int("control_violation_minutes",
           static_cast<uint64_t>(outcome.control_violation_minutes))
      .Obj("fingerprint", FingerprintJson(outcome.fingerprint));
}

void ReportTrace(const Workload& workload, JsonLine& out) {
  const TraceReport r = RunTraced(workload);
  const auto per_call = [](const LayerTotals& l) {
    return l.calls > 0 ? l.ns / static_cast<double>(l.calls) : 0.0;
  };
  const auto us_per_min = [&r](double ns) {
    return ns / 1e3 / r.sim_minutes;
  };
  double layer_ns = 0.0;
  for (const LayerTotals& l : r.layers) {
    layer_ns += l.ns;
  }
  const LayerTotals& self = r.layers[kSimSelf];
  const LayerTotals& batch = r.layers[kWorkload];
  const LayerTotals& submit = r.layers[kSubmit];
  const LayerTotals& completion = r.layers[kCompletion];
  const LayerTotals& sample = r.layers[kSample];
  const LayerTotals& tick = r.layers[kTick];
  JsonLine layers;
  layers.Int("sim.events", r.fingerprint.events)
      .Int("sim.pending_peak", r.pending_peak)
      .Num("sim.step_self_ns",
           r.self_timed_steps > 0
               ? self.ns / static_cast<double>(r.self_timed_steps)
               : 0.0)
      .Num("sim.us_per_sim_min", us_per_min(self.ns))
      .Int("workload.batches", batch.calls)
      .Num("workload.batch_ns", per_call(batch))
      .Num("workload.us_per_sim_min", us_per_min(batch.ns))
      .Int("sched.submits", submit.calls)
      .Num("sched.submit_ns", per_call(submit))
      .Num("sched.placed_on_submit_ratio",
           submit.calls > 0 ? static_cast<double>(r.placed_on_submit) /
                                  static_cast<double>(submit.calls)
                            : 0.0)
      .Int("sched.drain_placements", r.drain_placements)
      .Int("sched.queue_peak", r.queue_peak)
      .Num("sched.us_per_sim_min", us_per_min(submit.ns))
      .Int("cluster.completions", completion.calls)
      .Num("cluster.completion_ns", per_call(completion))
      .Num("cluster.us_per_sim_min", us_per_min(completion.ns))
      .Int("telemetry.samples", sample.calls)
      .Num("telemetry.sample_ns", per_call(sample))
      .Num("telemetry.us_per_sim_min", us_per_min(sample.ns))
      .Int("telemetry.series", r.series)
      .Int("core.ticks", tick.calls)
      .Num("core.tick_ns", per_call(tick))
      .Int("core.freeze_ops", r.freeze_ops)
      .Num("core.us_per_sim_min", us_per_min(tick.ns))
      .Num("metrics.us_per_sim_min", us_per_min(r.layers[kMetrics].ns))
      .Num("campus.us_per_sim_min", us_per_min(r.layers[kCampus].ns))
      .Int("campus.replans", r.replans)
      .Int("campus.spillover_jobs", r.spillover_jobs)
      .Num("trace.coverage", layer_ns / (r.wall_s * 1e9));
  out.Num("traced_s", r.wall_s)
      .Num("traced_cpu_s", r.cpu_s)
      .Bool("breaker_tripped", r.breaker_tripped)
      .Bool("journal_matches", r.journal_matches)
      .Obj("fingerprint", FingerprintJson(r.fingerprint))
      .Obj("layers", layers);
}

int Usage() {
  std::fprintf(stderr,
               "usage: closed_loop_bench --workload NAME --seed N "
               "--mode run|trace [--short]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string name;
  std::string mode;
  uint64_t seed = 0;
  bool have_seed = false;
  bool short_horizon = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--short") {
      short_horizon = true;
    } else if (i + 1 < argc && arg == "--workload") {
      name = argv[++i];
    } else if (i + 1 < argc && arg == "--mode") {
      mode = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else {
      return Usage();
    }
  }
  Workload workload;
  if (!have_seed || (mode != "run" && mode != "trace") ||
      !MakeWorkload(name, seed, short_horizon, &workload)) {
    return Usage();
  }
  JsonLine out;
  out.Str("workload", name)
      .Int("seed", seed)
      .Str("mode", mode)
      .Int("servers", static_cast<uint64_t>(workload.servers));
  if (mode == "trace") {
    ReportTrace(workload, out);
  } else if (workload.campus) {
    TimeDriver<ampere::CampusExperiment>(workload, out);
  } else {
    TimeDriver<ampere::ControlledExperiment>(workload, out);
  }
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
