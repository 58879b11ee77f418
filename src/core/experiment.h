// Controlled-experiment harness reproducing the paper's evaluation
// methodology (§4.1.2).
//
// The servers of one production row are partitioned into two virtual groups
// by server-id parity (a uniformly random split), both fed by the same
// scheduler, so the groups statistically receive the same workload. The
// experiment group runs under Ampere's control with a power budget scaled
// down by 1/(1 + rO) — emulating over-provisioning by rO per Eq. (16) — and
// the control group runs uncontrolled. Any difference between the groups is
// attributable to the control actions.
//
// The harness also implements the Fig. 5 calibration procedure: holding the
// freezing ratio at exogenous levels in timed blocks and recording the
// power-change difference between the groups, which fits f(u).
//
// Thread-compatibility audit (for the parallel scenario harness): a
// ControlledExperiment owns every piece of mutable state it touches — the
// Simulation clock and event queue, the DataCenter, the TimeSeriesDb, the
// scheduler, the monitor, and all RNG streams (forked from config.seed; no
// static locals, no globals). Two instances on two threads share nothing;
// run instances concurrently via RunExperimentToResult.

#ifndef SRC_CORE_EXPERIMENT_H_
#define SRC_CORE_EXPERIMENT_H_

#include <memory>
#include <span>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/control/budget_schedule.h"
#include "src/control/campus_allocator.h"
#include "src/core/controller.h"
#include "src/core/dc_runtime.h"
#include "src/core/metrics.h"
#include "src/core/run_artifacts.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/obs/flight_recorder.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulation.h"
#include "src/telemetry/power_monitor.h"
#include "src/telemetry/timeseries_db.h"
#include "src/workload/batch_workload.h"
#include "src/workload/trace_format.h"

namespace ampere {

// Campus-federation section of ExperimentConfig (consumed by
// CampusExperiment / RunCampusToResult in core/campus_experiment.h).
// ControlledExperiment ignores it entirely, so single-DC configs are
// bit-identical to the pre-federation harness.
struct CampusSection {
  bool enabled = false;
  int num_datacenters = 4;
  // Per-DC contract ceilings; CampusConfig semantics (last value repeats,
  // empty / non-positive = rated provisioning).
  std::vector<double> dc_contract_watts;
  double campus_contract_watts = 0.0;  // 0 = sum of DC contracts.
  CampusAllocatorConfig allocator;
  // Per-DC workload intensity as target normalized power (the heterogeneity
  // that makes dynamic allocation worth anything). Last value repeats;
  // empty keeps ExperimentConfig::workload's arrival rate as-is for every
  // DC.
  std::vector<double> dc_target_power;
  // Cross-DC batch spillover (off by default: single-DC-equivalent
  // behavior). When a DC's queue exceeds the threshold while its controller
  // is freezing, up to max_jobs_per_pass unpinned jobs per minute move to
  // the sibling DC with the most observed headroom.
  bool enable_spillover = false;
  size_t spillover_queue_threshold = 32;
  size_t spillover_max_jobs_per_pass = 16;
};

// Flight-recorder / artifact section of ExperimentConfig. Everything here is
// observation-only: the recorder never schedules simulation events or feeds
// into control decisions, so simulation results are bit-identical with any
// combination of these settings (the perf-identity goldens pin this).
struct ObsSection {
  // Attach a flight recorder for the run. Implied by a non-empty trace_path
  // or postmortem_dir; set it alone to query the recorder programmatically.
  bool flight_recorder = false;
  size_t recorder_capacity = 16384;
  // Write the run's timeline as Chrome/Perfetto trace_event JSON here after
  // the run ("" = no trace artifact).
  std::string trace_path;
  // Write anomaly postmortem JSON artifacts into this directory ("" = no
  // postmortems). Created if missing.
  std::string postmortem_dir;
  // Label embedded in artifacts and postmortem file names (scenario name
  // under the harness). Empty = "run".
  std::string run_label;
  obs::AnomalyPolicy anomaly;
  obs::PostmortemConfig postmortem;

  bool enabled() const {
    return flight_recorder || !trace_path.empty() || !postmortem_dir.empty();
  }
};

// Workload-trace record/replay section (ampere.trace.v1; see
// src/workload/trace_format.h and docs/traces.md). Inactive by default —
// the synthetic BatchWorkload runs and nothing is recorded, bit-identical
// to the pre-trace harness. Single-DC only: CampusExperiment rejects an
// active section (per-DC traces are future work).
struct WorkloadTraceSection {
  // Replay: when replay_data is set (or replay_path names a readable
  // trace), a TraceArrivalProcess replaces the synthetic generator as the
  // arrival source. replay_data wins over replay_path.
  std::shared_ptr<const TraceData> replay_data;
  std::string replay_path;
  // Record: interpose a TraceRecorder between the arrival source and the
  // scheduler (works for synthetic AND replayed runs). The trace is
  // retrievable via ControlledExperiment::RecordedTrace(); a non-empty
  // record_path also writes it after the run and reports it as an artifact.
  bool record = false;
  std::string record_path;

  bool replay() const {
    return replay_data != nullptr || !replay_path.empty();
  }
  bool recording() const { return record || !record_path.empty(); }
  bool active() const { return replay() || recording(); }
};

// Telemetry storage has one tier, in memory; there is nothing to
// configure. An empty section kept only for readers that still check it.
struct StorageSection {
  constexpr bool enabled() const { return false; }
};

struct ExperimentConfig {
  uint64_t seed = 42;
  // A run is single-threaded: every pass runs on the simulation thread.
  // Whole runs go parallel in the scenario harness instead. A constant
  // kept only for readers that still check it; it cannot be set.
  static constexpr int jobs = 1;
  // Telemetry always stays in memory. A constant kept only for readers that
  // still check it; it cannot be set.
  static constexpr StorageSection storage{};
  TopologyConfig topology;       // Default: one 420-server row.
  BatchWorkloadParams workload;  // Callers set arrival rate for the scenario.
  SchedulerConfig scheduler;
  PowerMonitorConfig monitor;
  // rO: extra servers emulated per Eq. (16) by scaling budgets down.
  double over_provision_ratio = 0.25;
  bool scale_experiment_budget = true;
  // §4.2 scales both groups (to compare controlled vs. uncontrolled at the
  // same rO); §4.4 scales only the experiment group.
  bool scale_control_budget = true;
  bool enable_ampere = true;
  AmpereControllerConfig controller;
  SimTime warmup = SimTime::Hours(2);
  SimTime duration = SimTime::Hours(24);
  // Chaos profile: when any fault dimension is active, the experiment
  // pre-generates a FaultPlan over the whole run horizon (seeded by
  // faults.seed, independent of the workload seed) and attaches one
  // FaultInjector to the monitor and the scheduler. Default: no faults —
  // bit-identical to the fault-free experiment.
  faults::FaultPlanConfig faults;
  // Campus federation (multi-DC) section; see CampusSection above. Only
  // RunCampusToResult reads it.
  CampusSection campus;
  // Flight recorder / trace / postmortem artifacts; see ObsSection above.
  ObsSection obs;
  // Workload-trace record/replay; see WorkloadTraceSection above.
  WorkloadTraceSection trace;
  // Time-varying power budget P(t), evaluated on the measured clock (t = 0
  // at the end of warmup) and applied per minute as a scale on the
  // experiment domain's budget (and, in a campus run, on the allocator's
  // campus total). The default constant schedule adds no events — fixed-cap
  // runs stay bit-identical.
  BudgetSchedule budget_schedule;
};

struct ExperimentResult {
  GroupReport experiment;
  GroupReport control;
  double throughput_ratio = 0.0;  // rT = thruE / thruC.
  double gain_tpw = 0.0;          // Eq. (18).
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  size_t final_queue_length = 0;
  bool breaker_tripped = false;
  // Aggregate of the controller's DecisionJournal over the run (empty when
  // the controller is disabled or journaling is off). Since the journal
  // sees the same per-minute power the metrics recorder sees, its
  // "experiment"-domain row reproduces the GroupReport's Table-2 counts
  // (violations, u_mean, u_max) independently — the audit path and the
  // reporting path cross-check each other.
  obs::JournalSummary journal;
  // Fault adversity the run actually experienced (all zero without an
  // injector): raw injector event counts plus the controller's degraded-tick
  // totals. These report what *happened*, where ExperimentConfig::faults
  // describes what was possible.
  faults::FaultCounts fault_counts;
  uint64_t degraded_ticks = 0;
  uint64_t blackout_skips = 0;
  uint64_t stale_fallbacks = 0;
  uint64_t rpc_giveups = 0;
  // Artifact files this run wrote (trace export first, then postmortems in
  // trigger order). Empty unless ExperimentConfig::obs asked for them.
  std::vector<std::string> artifacts;
  uint64_t timeline_events = 0;  // Recorder total_appended (0 = no recorder).
  // Workload-trace accounting (zero when ExperimentConfig::trace inactive).
  uint64_t trace_jobs_recorded = 0;
  uint64_t trace_jobs_replayed = 0;
  // The deepest budget scale the run's P(t) reached over the measured
  // window (1.0 for the constant schedule).
  double budget_scale_min = 1.0;
};

// Calibration helper: the arrival rate (jobs/minute) that drives the
// topology to `target_normalized_power` — power relative to the
// rO-scaled budget — in steady state (Little's law on the duration model and
// the demand mix, inverted through the power model). Benches use this to set
// up the paper's "light"/"heavy" workload levels.
double ArrivalRateForNormalizedPower(const TopologyConfig& topology,
                                     const BatchWorkloadParams& workload,
                                     double target_normalized_power,
                                     double over_provision_ratio);

// Pure entry point for the parallel scenario harness: constructs a fresh
// ControlledExperiment from `config`, runs the closed loop, and returns the
// result. The function touches no global mutable state — every stochastic
// component forks off the instance-owned RNG seeded from `config.seed`, the
// simulation clock/event queue/telemetry store are all instance members —
// so concurrent calls with distinct instances are safe and each call is a
// deterministic function of its config (bit-identical across thread
// counts). Logging goes through the global logger, which is mutexed and
// per-thread capturable (src/common/log_capture.h).
ExperimentResult RunExperimentToResult(const ExperimentConfig& config);

class ControlledExperiment {
 public:
  static constexpr const char* kExperimentGroup = DcRuntime::kExperimentGroup;
  static constexpr const char* kControlGroup = DcRuntime::kControlGroup;

  explicit ControlledExperiment(const ExperimentConfig& config);

  // Closed-loop run: warmup, then `duration` of measurement.
  ExperimentResult Run();

  // Fig. 5 calibration. f(u) in the controller's model is the power
  // reduction one interval of *freshly applied* freezing buys relative to
  // not freezing (the controller re-decides every minute, so this is the
  // operative quantity; after several constant-u minutes the groups reach a
  // new equilibrium and the per-minute difference washes out). The
  // procedure therefore cycles:
  //   [rest: all unfrozen, groups re-equalize] ->
  //   [hold: freeze u*n top-power servers, sample minutes 1..hold-1] -> ...
  // through `u_levels`, recording per-minute samples
  //   f = (dP_control - dP_experiment) / budget.
  // `selection` picks which servers each hold freezes (the paper always
  // freezes highest-power; alternatives feed the design-choice ablation).
  std::vector<FuSample> RunFuCalibration(
      std::span<const double> u_levels, SimTime hold, SimTime rest,
      SimTime total,
      FreezeSelection selection = FreezeSelection::kHighestPower);

  // --- Component access for custom benches and tests ---
  Simulation& sim() { return sim_; }
  DataCenter& dc() { return dc_; }
  Scheduler& scheduler() { return runtime_.scheduler(); }
  PowerMonitor& monitor() { return runtime_.monitor(); }
  TimeSeriesDb& db() { return db_; }
  AmpereController* controller() { return runtime_.controller(); }
  // The synthetic generator; null when config.trace replays a trace (use
  // trace_workload() there).
  BatchWorkload& workload() { return *workload_; }
  // Replay source; null unless config.trace.replay().
  TraceArrivalProcess* trace_workload() { return trace_workload_.get(); }
  // Recorder sink; null unless config.trace.recording().
  const TraceRecorder* trace_recorder() const {
    return trace_recorder_.get();
  }
  // Snapshot of the recorded trace, shareable into another config's
  // trace.replay_data. Requires config.trace.recording().
  std::shared_ptr<const TraceData> RecordedTrace() const;
  // Null unless config.faults has an active dimension.
  faults::FaultInjector* fault_injector() { return injector_.get(); }
  // Null unless config.obs.enabled(). Installed as the thread's current
  // recorder only while Run() executes.
  obs::FlightRecorder* flight_recorder() { return artifacts_.recorder(); }
  const std::vector<ServerId>& experiment_servers() const {
    return runtime_.experiment_servers();
  }
  const std::vector<ServerId>& control_servers() const {
    return runtime_.control_servers();
  }
  double experiment_budget_watts() const {
    return runtime_.experiment_budget_watts();
  }
  double control_budget_watts() const {
    return runtime_.control_budget_watts();
  }
  const ExperimentConfig& config() const { return config_; }

 private:
  // Workload + monitor, its series reserved for the samples through `end`.
  void StartBaseline(SimTime end);

  ExperimentConfig config_;
  Rng rng_;
  Simulation sim_;
  DataCenter dc_;
  // Recorder and postmortems.
  RunArtifacts artifacts_;
  TimeSeriesDb db_;
  // Scheduler, monitor, groups, controller and the per-minute recorder on
  // RNG streams 1 and 2 with the historical (unprefixed) series names.
  DcRuntime runtime_;
  JobIdAllocator ids_;
  std::unique_ptr<BatchWorkload> workload_;
  // Trace record/replay (null unless the config section asks for them).
  std::unique_ptr<TraceRecorder> trace_recorder_;
  std::unique_ptr<TraceArrivalProcess> trace_workload_;
  std::unique_ptr<faults::FaultInjector> injector_;
  double budget_scale_min_ = 1.0;
};

}  // namespace ampere

#endif  // SRC_CORE_EXPERIMENT_H_
