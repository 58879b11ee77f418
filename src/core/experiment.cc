#include "src/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

double ArrivalRateForNormalizedPower(const TopologyConfig& topology,
                                     const BatchWorkloadParams& workload,
                                     double target_normalized_power,
                                     double over_provision_ratio) {
  AMPERE_CHECK(target_normalized_power > 0.0);
  const PowerModelParams& pm = topology.power_model;
  double rated = pm.rated_watts;
  double idle = rated * pm.idle_fraction;
  double dyn_range = rated - idle;
  // Power target relative to the *rated* budget.
  double target_rated = target_normalized_power / (1.0 + over_provision_ratio);
  double util = (rated * target_rated - idle) / dyn_range;
  AMPERE_CHECK(util > 0.0)
      << "target power " << target_normalized_power
      << " is below the idle floor at rO=" << over_provision_ratio;
  AMPERE_CHECK(util <= 1.0) << "target power above full utilization";

  double n_servers = static_cast<double>(topology.num_rows) *
                     topology.racks_per_row * topology.servers_per_rack;
  double total_cores = n_servers * topology.server_capacity.cpu_cores;

  // Mean demand per job from the mix (or the generator's default mix).
  std::vector<DemandProfile> demands = workload.demands;
  if (demands.empty()) {
    demands = {{Resources{1.0, 2.0}, 0.4},
               {Resources{2.0, 4.0}, 0.4},
               {Resources{4.0, 8.0}, 0.2}};
  }
  double weight = 0.0;
  double mean_cores = 0.0;
  for (const DemandProfile& d : demands) {
    weight += d.weight;
    mean_cores += d.weight * d.demand.cpu_cores;
  }
  mean_cores /= weight;

  DurationModel durations(workload.durations);
  double mean_minutes = durations.TruncatedMeanMinutes();
  // Little's law: concurrent cores = rate * duration * cores_per_job.
  return util * total_cores / (mean_minutes * mean_cores);
}

ExperimentResult RunExperimentToResult(const ExperimentConfig& config) {
  ControlledExperiment experiment(config);
  return experiment.Run();
}

ControlledExperiment::ControlledExperiment(const ExperimentConfig& config)
    : config_(config), rng_(config.seed),
      sim_(), dc_(config.topology, &sim_), artifacts_(config_, "run"), db_(),
      runtime_(config_,
               {.scheduler_stream = 1, .monitor_stream = 2,
                .series_prefix = "", .obs_domain = 0},
               &dc_, &sim_, &db_, rng_) {
  // Arrival source: synthetic generator by default, trace replay when the
  // config asks. A recording run interposes the TraceRecorder as the sink —
  // a pass-through decorator, so recording never perturbs the run.
  JobSink* sink = &runtime_.scheduler();
  if (config_.trace.recording()) {
    trace_recorder_ =
        std::make_unique<TraceRecorder>(&sim_, &runtime_.scheduler());
    trace_recorder_->set_seed(config_.seed);
    trace_recorder_->SetClasses(config_.workload.demands);
    sink = trace_recorder_.get();
  }
  if (config_.trace.replay()) {
    std::shared_ptr<const TraceData> replay = config_.trace.replay_data;
    if (replay == nullptr) {
      TraceParseResult parsed = ReadTraceFile(config_.trace.replay_path);
      AMPERE_CHECK(parsed.ok()) << "cannot replay trace "
                                << config_.trace.replay_path << ": "
                                << parsed.message;
      replay = std::make_shared<const TraceData>(std::move(parsed.trace));
    }
    trace_workload_ = std::make_unique<TraceArrivalProcess>(
        std::move(replay), &sim_, sink, &ids_);
  } else {
    workload_ = std::make_unique<BatchWorkload>(config_.workload, &sim_,
                                                sink, &ids_, rng_.Fork(3));
  }

  if (config_.faults.any()) {
    // Pre-generate the whole run's fault schedule (seeded independently of
    // the workload) and attach one injector to both fault surfaces. One
    // extra interval of slack covers tasks scheduled right at the horizon.
    const SimTime horizon =
        config_.warmup + config_.duration + config_.monitor.interval;
    injector_ = std::make_unique<faults::FaultInjector>(
        faults::FaultPlan::Generate(config_.faults, horizon));
    runtime_.monitor().AttachFaultInjector(injector_.get());
    runtime_.scheduler().AttachFaultInjector(injector_.get());
  }
  artifacts_.SetPostmortemJournal(
      controller() != nullptr ? &controller()->journal() : nullptr);
}

void ControlledExperiment::StartBaseline(SimTime end) {
  // Replay mirrors the generator's event pattern (same Start slot, same
  // per-minute batch task), so a replayed run's event ordering matches the
  // recording run's.
  if (trace_workload_ != nullptr) {
    trace_workload_->Start(SimTime());
  } else {
    workload_->Start(SimTime());
  }
  // First sample lands at t = 1 min, once some workload exists.
  runtime_.StartMonitor(end);
}

ExperimentResult ControlledExperiment::Run() {
  AMPERE_SPAN("experiment.run");
  // Install the flight recorder (if configured) for the whole closed loop.
  // Recording is passive — nothing downstream reads the recorder during the
  // run — so results are bit-identical with or without it.
  obs::ScopedFlightRecorder scoped_recorder(artifacts_.recorder());
  SimTime measure_start = config_.warmup;
  SimTime end = config_.warmup + config_.duration;
  StartBaseline(end);

  runtime_.StartMeasuring(measure_start, end);
  if (controller() != nullptr && !config_.budget_schedule.IsConstant()) {
    // P(t): re-target the domain budget each minute between the monitor's
    // sample (:00) and the controller's tick (+1 s), so every decision
    // rides the current cap. Gated on a non-constant schedule — fixed-cap
    // runs get no extra events and stay bit-identical.
    sim_.SchedulePeriodic(
        measure_start + SimTime::Millis(500), SimTime::Minutes(1),
        [this, measure_start, end](SimTime t) {
          if (t >= end) {
            return;
          }
          const double scale =
              config_.budget_schedule.ScaleAt(t - measure_start);
          budget_scale_min_ = std::min(budget_scale_min_, scale);
          runtime_.SetExperimentBudget(runtime_.experiment_budget_watts() *
                                       scale);
        });
  }
  sim_.ScheduleAt(measure_start, [this] { runtime_.StartCounting(); });

  sim_.RunUntil(end);

  ExperimentResult result;
  runtime_.FillResult(result);
  if (injector_ != nullptr) {
    result.fault_counts = injector_->counts();
  }
  if (AmpereController* controller = this->controller()) {
    result.degraded_ticks = controller->degraded_ticks();
    result.blackout_skips = controller->blackout_skips();
    result.stale_fallbacks = controller->stale_fallbacks();
    result.rpc_giveups = controller->rpc_giveups();
    // Re-export the audit-path aggregates as gauges so a harness run's obs
    // snapshot carries the journal summary alongside the span profile.
    for (const auto& d : result.journal.domains) {
      const std::string prefix = "journal." + d.domain + ".";
      obs::GaugeSet(prefix + "ticks", static_cast<double>(d.ticks));
      obs::GaugeSet(prefix + "violations", static_cast<double>(d.violations));
      obs::GaugeSet(prefix + "u_mean", d.u_mean);
      obs::GaugeSet(prefix + "u_max", d.u_max);
      obs::GaugeSet(prefix + "p_mean", d.p_mean);
      obs::GaugeSet(prefix + "p_max", d.p_max);
      obs::GaugeSet(prefix + "degraded_ticks",
                    static_cast<double>(d.degraded_ticks));
      obs::GaugeSet(prefix + "rpc_giveups", static_cast<double>(d.rpc_giveups));
    }
  }

  result.timeline_events = artifacts_.ExportTimeline(result.artifacts);
  result.budget_scale_min = budget_scale_min_;
  if (trace_workload_ != nullptr) {
    result.trace_jobs_replayed = trace_workload_->jobs_submitted();
  }
  if (trace_recorder_ != nullptr) {
    result.trace_jobs_recorded = trace_recorder_->jobs_recorded();
    if (!config_.trace.record_path.empty()) {
      if (WriteTraceFile(config_.trace.record_path,
                         trace_recorder_->trace())) {
        result.artifacts.push_back(config_.trace.record_path);
      } else {
        AMPERE_LOG(kWarning) << "failed to write trace artifact "
                             << config_.trace.record_path;
      }
    }
  }
  return result;
}

std::shared_ptr<const TraceData> ControlledExperiment::RecordedTrace() const {
  AMPERE_CHECK(trace_recorder_ != nullptr)
      << "RecordedTrace needs config.trace.recording()";
  return std::make_shared<const TraceData>(trace_recorder_->trace());
}

std::vector<FuSample> ControlledExperiment::RunFuCalibration(
    std::span<const double> u_levels, SimTime hold, SimTime rest,
    SimTime total, FreezeSelection selection) {
  AMPERE_CHECK(!u_levels.empty());
  AMPERE_CHECK(hold >= SimTime::Minutes(2));
  AMPERE_CHECK(rest >= SimTime::Minutes(1));
  AMPERE_CHECK(!config_.enable_ampere)
      << "calibration requires the closed-loop controller disabled";
  StartBaseline(config_.warmup + total);
  sim_.RunUntil(config_.warmup);

  // The periodic task outlives this function body (it stays armed in the
  // event queue), so all mutable calibration state lives on the heap and is
  // captured by value.
  struct CalibrationState {
    std::vector<FuSample> samples;
    std::unordered_set<ServerId> frozen;
    std::vector<double> levels;
    double current_u = 0.0;
    double prev_exp = 0.0;
    double prev_ctl = 0.0;
    int64_t hold_minutes = 0;
    int64_t rest_minutes = 0;
    int64_t minute_in_phase = 0;
    bool holding = false;
    size_t level_index = 0;
    FreezeSelection selection = FreezeSelection::kHighestPower;
    Rng rng{1};
  };
  auto state = std::make_shared<CalibrationState>();
  state->levels.assign(u_levels.begin(), u_levels.end());
  state->hold_minutes = static_cast<int64_t>(hold.minutes());
  state->rest_minutes = static_cast<int64_t>(rest.minutes());
  state->selection = selection;
  state->rng = rng_.Fork(77);
  SimTime end = config_.warmup + total;

  // Per-minute calibration task, offset 1 s after the monitor sample.
  sim_.SchedulePeriodic(
      config_.warmup + SimTime::Seconds(1), SimTime::Minutes(1),
      [this, state, end](SimTime now) {
        if (now >= end) {
          return;
        }
        double exp_watts = monitor().LatestGroupWatts(kExperimentGroup);
        double ctl_watts = monitor().LatestGroupWatts(kControlGroup);
        // Sampling precedes the phase transition below, so at the tick that
        // applies a freeze `holding` is still false (no partial interval is
        // sampled) and the first sampled delta covers the first full frozen
        // minute.
        if (state->holding) {
          // f(u) sample while the freeze is fresh: the control group's
          // power change is the shared demand trend E_t; the experiment
          // group's shortfall from that trend is the freezing effect
          // (§3.4). Normalized to the budget.
          double delta_ctl =
              (ctl_watts - state->prev_ctl) / control_budget_watts();
          double delta_exp =
              (exp_watts - state->prev_exp) / experiment_budget_watts();
          state->samples.push_back(
              FuSample{state->current_u, delta_ctl - delta_exp});
        }
        state->prev_exp = exp_watts;
        state->prev_ctl = ctl_watts;

        ++state->minute_in_phase;
        if (state->holding && state->minute_in_phase >= state->hold_minutes) {
          // Hold over: release and rest so the groups re-equalize.
          for (ServerId id : state->frozen) {
            scheduler().Unfreeze(id);
          }
          state->frozen.clear();
          state->holding = false;
          state->minute_in_phase = 0;
        } else if (!state->holding &&
                   state->minute_in_phase >= state->rest_minutes) {
          // Rest over: apply the next level to the highest-power
          // experiment-group servers (§3.5).
          state->current_u =
              state->levels[state->level_index % state->levels.size()];
          ++state->level_index;
          auto target = static_cast<size_t>(
              std::floor(state->current_u *
                         static_cast<double>(experiment_servers().size())));
          std::vector<ServerId> ranked = experiment_servers();
          switch (state->selection) {
            case FreezeSelection::kHighestPower:
              std::sort(ranked.begin(), ranked.end(),
                        [this](ServerId a, ServerId b) {
                          return monitor().LatestServerWatts(a) >
                                 monitor().LatestServerWatts(b);
                        });
              break;
            case FreezeSelection::kLowestPower:
              std::sort(ranked.begin(), ranked.end(),
                        [this](ServerId a, ServerId b) {
                          return monitor().LatestServerWatts(a) <
                                 monitor().LatestServerWatts(b);
                        });
              break;
            case FreezeSelection::kRandom:
              for (size_t i = ranked.size(); i > 1; --i) {
                size_t j = static_cast<size_t>(state->rng.UniformInt(
                    0, static_cast<int64_t>(i) - 1));
                std::swap(ranked[i - 1], ranked[j]);
              }
              break;
          }
          for (size_t i = 0; i < target && i < ranked.size(); ++i) {
            scheduler().Freeze(ranked[i]);
            state->frozen.insert(ranked[i]);
          }
          state->holding = true;
          state->minute_in_phase = 0;
        }
      });

  sim_.RunUntil(end);
  for (ServerId id : state->frozen) {
    scheduler().Unfreeze(id);
  }
  return state->samples;
}

}  // namespace ampere
