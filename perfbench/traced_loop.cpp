#include "perfbench/traced_loop.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/campus.h"
#include "src/common/check.h"
#include "src/core/campus_experiment.h"
#include "src/core/controller.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

using ampere::AmpereController;
using ampere::BatchWorkload;
using ampere::BatchWorkloadParams;
using ampere::ControlledExperiment;
using ampere::DataCenter;
using ampere::GroupReport;
using ampere::JobSpec;
using ampere::PowerMonitor;
using ampere::Scheduler;
using ampere::ServerId;
using ampere::SimTime;
using Clock = std::chrono::steady_clock;

double Ns(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

// Per-step attribution state shared by every tap.
class StepTrace {
 public:
  // Runs `call` as the current step's timed call, charged to `layer`.
  template <typename F>
  void Timed(Layer layer, F&& call) {
    const Clock::time_point begin = Clock::now();
    call();
    const double ns = Ns(Clock::now() - begin);
    report_->layers[layer].calls += 1;
    report_->layers[layer].ns += ns;
    inner_ns_ += ns;
    step_layer_ = layer;
  }

  void MarkCompletion() {
    report_->layers[kCompletion].calls += 1;
    step_layer_ = kCompletion;
  }

  // Steps `sim` until `stop` is set, reading the clock once per step
  // boundary so the loop's own bookkeeping is charged to the next step.
  void Drive(ampere::Simulation& sim, const bool& stop) {
    Clock::time_point prev = Clock::now();
    while (!stop) {
      step_layer_ = kWorkload;
      inner_ns_ = 0.0;
      sim.Step();
      const Clock::time_point now = Clock::now();
      const double step_ns = Ns(now - prev);
      prev = now;
      if (step_layer_ == kWorkload) {
        report_->layers[kWorkload].calls += 1;
        report_->layers[kWorkload].ns += step_ns;
      } else if (step_layer_ == kCompletion) {
        report_->layers[kCompletion].ns += step_ns;
      } else {
        report_->layers[kSimSelf].ns += step_ns - inner_ns_;
        ++report_->self_timed_steps;
      }
      report_->pending_peak =
          std::max<uint64_t>(report_->pending_peak, sim.pending_events());
    }
  }

  void set_report(TraceReport* report) { report_ = report; }
  bool in_submit = false;

 private:
  TraceReport* report_ = nullptr;
  Layer step_layer_ = kWorkload;
  double inner_ns_ = 0.0;
};

// The Submit tap: the workload's JobSink, forwarding to the scheduler.
class TimedSink : public ampere::JobSink {
 public:
  TimedSink(Scheduler* scheduler, StepTrace* trace, TraceReport* report)
      : scheduler_(scheduler), trace_(trace), report_(report) {}

  void Submit(const JobSpec& job) override {
    trace_->in_submit = true;
    trace_->Timed(kSubmit, [this, &job] { scheduler_->Submit(job); });
    trace_->in_submit = false;
    report_->queue_peak =
        std::max<uint64_t>(report_->queue_peak, scheduler_->queue_length());
  }

 private:
  Scheduler* scheduler_;
  StepTrace* trace_;
  TraceReport* report_;
};

// One DC's components and accounting, as each driver keeps them.
struct DcLoop {
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<PowerMonitor> monitor;
  std::unique_ptr<TimedSink> sink;
  std::unique_ptr<BatchWorkload> workload;
  std::unique_ptr<AmpereController> controller;
  std::vector<ServerId> experiment_servers;
  std::vector<ServerId> control_servers;
  double experiment_budget_watts = 0.0;
  double control_budget_watts = 0.0;
  double experiment_rated_watts = 0.0;
  GroupReport experiment_report;
  GroupReport control_report;
  uint64_t window_thru_experiment = 0;
  uint64_t window_thru_control = 0;
  uint64_t minute_thru_experiment = 0;
  uint64_t minute_thru_control = 0;
};

// RNG stream ids, series prefix and workload of one DC, as the driver
// being mirrored assigns them.
struct DcWiring {
  uint64_t scheduler_stream = 0;
  uint64_t monitor_stream = 0;
  uint64_t workload_stream = 0;
  std::string series_prefix;
  BatchWorkloadParams workload;
  bool obs_domain = false;  // Campus DCs scope their metrics "dcK/".
};

class TracedLoop {
 public:
  explicit TracedLoop(const Workload& workload);
  TraceReport Run();

 private:
  void BuildDc(DataCenter* dc, size_t k, const DcWiring& wiring);
  void InstallMetricsRecorder(DcLoop* loop, SimTime from, SimTime to);
  void SpilloverPass();
  void ReplanBudgets(SimTime now);

  ampere::ExperimentConfig config_;
  bool is_campus_;
  ampere::Rng rng_;
  ampere::Simulation sim_;
  std::unique_ptr<DataCenter> single_dc_;
  std::unique_ptr<ampere::Campus> campus_;
  ampere::TimeSeriesDb db_;
  ampere::JobIdAllocator ids_;
  TraceReport report_;
  StepTrace trace_;
  std::vector<std::unique_ptr<DcLoop>> dcs_;
  std::unique_ptr<ampere::CampusBudgetAllocator> allocator_;
  bool counting_ = false;
  bool stop_ = false;
};

TracedLoop::TracedLoop(const Workload& workload)
    : config_(workload.config), is_campus_(workload.campus),
      rng_(workload.config.seed) {
  AMPERE_CHECK(config_.jobs <= 1 && !config_.faults.any() &&
               !config_.trace.active() && !config_.storage.enabled() &&
               !config_.obs.enabled() &&
               config_.budget_schedule.IsConstant() && config_.enable_ampere)
      << "the traced mirror reproduces only the benchmark's workloads";
  trace_.set_report(&report_);
  if (!is_campus_) {
    // ControlledExperiment: streams 1..3, historical series names.
    single_dc_ = std::make_unique<DataCenter>(config_.topology, &sim_);
    DcWiring wiring;
    wiring.scheduler_stream = 1;
    wiring.monitor_stream = 2;
    wiring.workload_stream = 3;
    wiring.workload = config_.workload;
    BuildDc(single_dc_.get(), 0, wiring);
    return;
  }
  // CampusExperiment: streams 100+k / 300+k / 200+k, "campus/dcK/" series,
  // per-DC arrival rates from dc_target_power.
  ampere::CampusConfig campus;
  campus.num_datacenters = config_.campus.num_datacenters;
  campus.datacenter = config_.topology;
  campus.dc_contract_watts = config_.campus.dc_contract_watts;
  campus.campus_contract_watts = config_.campus.campus_contract_watts;
  campus_ = std::make_unique<ampere::Campus>(campus, &sim_);
  for (int d = 0; d < campus_->num_datacenters(); ++d) {
    const auto k = static_cast<size_t>(d);
    DcWiring wiring;
    wiring.scheduler_stream = 100 + k;
    wiring.monitor_stream = 300 + k;
    wiring.workload_stream = 200 + k;
    wiring.series_prefix =
        ampere::CampusExperiment::DcPrefix(ampere::DataCenterId(d));
    wiring.workload = config_.workload;
    if (!config_.campus.dc_target_power.empty()) {
      const size_t i = std::min(k, config_.campus.dc_target_power.size() - 1);
      wiring.workload.arrivals.base_rate_per_min =
          ampere::ArrivalRateForNormalizedPower(
              config_.topology, config_.workload,
              config_.campus.dc_target_power[i],
              config_.over_provision_ratio);
    }
    wiring.obs_domain = true;
    BuildDc(&campus_->dc(ampere::DataCenterId(d)), k, wiring);
  }
  double campus_cap = 0.0;
  for (const auto& loop : dcs_) {
    campus_cap += loop->experiment_budget_watts;
  }
  allocator_ = std::make_unique<ampere::CampusBudgetAllocator>(
      campus_cap, config_.campus.allocator);
}

void TracedLoop::BuildDc(DataCenter* dc, size_t k, const DcWiring& wiring) {
  auto loop = std::make_unique<DcLoop>();
  loop->scheduler = std::make_unique<Scheduler>(
      dc, config_.scheduler, rng_.Fork(wiring.scheduler_stream));
  ampere::PowerMonitorConfig monitor_config = config_.monitor;
  monitor_config.series_prefix = wiring.series_prefix;
  loop->monitor = std::make_unique<PowerMonitor>(
      dc, &db_, monitor_config, rng_.Fork(wiring.monitor_stream));

  // §4.1.2 parity split, as both drivers do it.
  for (int32_t s = 0; s < dc->num_servers(); ++s) {
    const ServerId id(s);
    if (dc->server(id).reserved()) {
      continue;
    }
    (s % 2 == 0 ? loop->experiment_servers : loop->control_servers)
        .push_back(id);
  }
  AMPERE_CHECK(!loop->experiment_servers.empty() &&
               !loop->control_servers.empty());
  loop->monitor->RegisterGroup(ControlledExperiment::kExperimentGroup,
                               loop->experiment_servers);
  loop->monitor->RegisterGroup(ControlledExperiment::kControlGroup,
                               loop->control_servers);
  const double rated = dc->power_model().rated_watts();
  const double scale = 1.0 + config_.over_provision_ratio;
  loop->experiment_rated_watts =
      static_cast<double>(loop->experiment_servers.size()) * rated;
  const double control_rated =
      static_cast<double>(loop->control_servers.size()) * rated;
  loop->experiment_budget_watts = config_.scale_experiment_budget
                                      ? loop->experiment_rated_watts / scale
                                      : loop->experiment_rated_watts;
  loop->control_budget_watts =
      config_.scale_control_budget ? control_rated / scale : control_rated;

  loop->sink = std::make_unique<TimedSink>(loop->scheduler.get(), &trace_,
                                           &report_);
  loop->workload = std::make_unique<BatchWorkload>(
      wiring.workload, &sim_, loop->sink.get(), &ids_,
      rng_.Fork(wiring.workload_stream));
  loop->controller = std::make_unique<AmpereController>(
      loop->scheduler.get(), loop->monitor.get(), config_.controller);
  if (wiring.obs_domain) {
    const ampere::obs::DomainId domain =
        ampere::obs::InternDomain("dc" + std::to_string(k) + "/");
    dc->SetObsDomain(domain);
    loop->scheduler->SetObsDomain(domain);
    loop->monitor->SetObsDomain(domain);
    loop->controller->SetObsDomain(domain);
  }
  ampere::ControlDomain domain;
  domain.group = ControlledExperiment::kExperimentGroup;
  domain.servers = loop->experiment_servers;
  domain.budget_watts = loop->experiment_budget_watts;
  loop->controller->AddDomain(std::move(domain));

  DcLoop* raw = loop.get();
  loop->scheduler->SetPlacementListener(
      [this, raw](const JobSpec&, ServerId server) {
        ++(trace_.in_submit ? report_.placed_on_submit
                            : report_.drain_placements);
        if (!counting_) {
          return;
        }
        if ((server.value() % 2) == 0) {
          ++raw->window_thru_experiment;
          ++raw->minute_thru_experiment;
        } else {
          ++raw->window_thru_control;
          ++raw->minute_thru_control;
        }
      });
  loop->scheduler->SetCompletionListener(
      [this](ServerId, ampere::JobId) { trace_.MarkCompletion(); });
  dcs_.push_back(std::move(loop));
}

void TracedLoop::InstallMetricsRecorder(DcLoop* loop, SimTime from,
                                        SimTime to) {
  // Both drivers record 2 s after the minute's sample, against the
  // controller's budget in force (constant for a single DC).
  sim_.SchedulePeriodic(
      from + SimTime::Seconds(2), SimTime::Minutes(1),
      [this, loop, to](SimTime t) {
        trace_.Timed(kMetrics, [loop, t, to] {
          if (t >= to) {
            return;
          }
          const double exp_watts = loop->monitor->LatestGroupWatts(
              ControlledExperiment::kExperimentGroup);
          const double ctl_watts = loop->monitor->LatestGroupWatts(
              ControlledExperiment::kControlGroup);
          ampere::MinutePoint exp_point;
          exp_point.time = t;
          exp_point.power_watts = exp_watts;
          exp_point.normalized_power =
              exp_watts / loop->controller->domain_budget(0);
          exp_point.freeze_ratio = loop->controller->freeze_ratio(0);
          exp_point.violation = exp_point.normalized_power > 1.0;
          exp_point.placements =
              static_cast<uint32_t>(loop->minute_thru_experiment);
          loop->experiment_report.minutes.push_back(exp_point);

          ampere::MinutePoint ctl_point;
          ctl_point.time = t;
          ctl_point.power_watts = ctl_watts;
          ctl_point.normalized_power = ctl_watts / loop->control_budget_watts;
          ctl_point.violation = ctl_point.normalized_power > 1.0;
          ctl_point.placements =
              static_cast<uint32_t>(loop->minute_thru_control);
          loop->control_report.minutes.push_back(ctl_point);

          loop->minute_thru_experiment = 0;
          loop->minute_thru_control = 0;
        });
      });
}

void TracedLoop::SpilloverPass() {
  // CampusExperiment::SpilloverPass without its timeline events.
  const size_t threshold = config_.campus.spillover_queue_threshold;
  for (auto& source : dcs_) {
    if (source->scheduler->queue_length() <= threshold ||
        source->controller->freeze_ratio(0) <= 0.0) {
      continue;
    }
    DcLoop* target = nullptr;
    double best_headroom = 0.0;
    for (auto& candidate : dcs_) {
      if (candidate.get() == source.get() ||
          candidate->scheduler->queue_length() > threshold) {
        continue;
      }
      const double headroom = candidate->controller->domain_budget(0) -
                              candidate->monitor->LatestGroupWatts(
                                  ControlledExperiment::kExperimentGroup);
      if (headroom > best_headroom) {
        best_headroom = headroom;
        target = candidate.get();
      }
    }
    if (target == nullptr) {
      continue;
    }
    const std::vector<JobSpec> moved = source->scheduler->TakePending(
        config_.campus.spillover_max_jobs_per_pass);
    for (const JobSpec& job : moved) {
      target->scheduler->Submit(job);
    }
    report_.spillover_jobs += moved.size();
  }
}

void TracedLoop::ReplanBudgets(SimTime now) {
  std::vector<ampere::CampusDcObservation> observations;
  observations.reserve(dcs_.size());
  for (const auto& loop : dcs_) {
    ampere::CampusDcObservation observation;
    observation.observed_watts = loop->monitor->LatestGroupWatts(
        ControlledExperiment::kExperimentGroup);
    observation.budget_watts = loop->controller->domain_budget(0);
    observation.contract_watts = loop->experiment_rated_watts;
    observations.push_back(observation);
  }
  const std::vector<double> shares = allocator_->Replan(now, observations);
  for (size_t k = 0; k < dcs_.size(); ++k) {
    dcs_[k]->controller->SetDomainBudget(0, shares[k]);
  }
}

TraceReport TracedLoop::Run() {
  const Clock::time_point begin = Clock::now();
  const double cpu_begin = ThreadCpuSeconds();
  const SimTime measure_start = config_.warmup;
  const SimTime end = config_.warmup + config_.duration;
  // Same scheduling order as the drivers' Run(): workloads, monitors,
  // controllers, recorders, then the campus passes and the counting flag.
  for (const auto& loop : dcs_) {
    loop->workload->Start(SimTime());
  }
  for (const auto& loop : dcs_) {
    PowerMonitor* monitor = loop->monitor.get();
    sim_.SchedulePeriodic(
        SimTime::Minutes(1), config_.monitor.interval,
        [this, monitor](SimTime t) {
          trace_.Timed(kSample, [monitor, t] { monitor->SampleOnce(t); });
        });
  }
  for (const auto& loop : dcs_) {
    AmpereController* controller = loop->controller.get();
    sim_.SchedulePeriodic(
        measure_start + SimTime::Seconds(1), SimTime::Minutes(1),
        [this, controller](SimTime t) {
          trace_.Timed(kTick, [controller, t] { controller->Tick(t); });
        });
  }
  for (const auto& loop : dcs_) {
    InstallMetricsRecorder(loop.get(), measure_start, end);
  }
  if (is_campus_ && config_.campus.enable_spillover) {
    sim_.SchedulePeriodic(measure_start + SimTime::Seconds(4),
                          SimTime::Minutes(1), [this, end](SimTime t) {
                            trace_.Timed(kCampus, [this, t, end] {
                              if (t < end) {
                                SpilloverPass();
                              }
                            });
                          });
  }
  if (is_campus_) {
    sim_.SchedulePeriodic(measure_start + SimTime::Seconds(5),
                          config_.campus.allocator.replan_interval,
                          [this, end](SimTime t) {
                            trace_.Timed(kCampus, [this, t, end] {
                              if (t < end) {
                                ReplanBudgets(t);
                              }
                            });
                          });
  }
  sim_.ScheduleAt(measure_start, [this] {
    trace_.Timed(kMetrics, [this] { counting_ = true; });
  });
  // Simulation::RunUntil(end) runs every event at or before `end`. This stop
  // event sorts after all of them and before anything later (its seq is
  // older than any event at end + 1 us), so stepping until it fires runs
  // exactly that set. It is the one extra event the mirror processes.
  sim_.ScheduleAt(end + SimTime::Micros(1), [this] {
    trace_.Timed(kMetrics, [this] { stop_ = true; });
  });
  trace_.Drive(sim_, stop_);

  uint64_t thru_experiment = 0;
  uint64_t thru_control = 0;
  Fingerprint& fp = report_.fingerprint;
  for (const auto& loop : dcs_) {
    loop->experiment_report.throughput_jobs = loop->window_thru_experiment;
    loop->control_report.throughput_jobs = loop->window_thru_control;
    loop->experiment_report.Finalize();
    loop->control_report.Finalize();
    thru_experiment += loop->window_thru_experiment;
    thru_control += loop->window_thru_control;
    fp.jobs_submitted += loop->scheduler->jobs_submitted();
    fp.jobs_completed += loop->scheduler->jobs_completed();
    fp.violation_minutes += loop->experiment_report.violations;
    const ampere::obs::DecisionJournal& journal =
        loop->controller->journal();
    report_.journal_matches =
        report_.journal_matches &&
        JournalMatchesReport(journal.Summarize(), loop->experiment_report);
    for (const ampere::obs::DecisionRecord& record :
         journal.Tail(journal.size())) {
      report_.freeze_ops += record.freeze_ops;
    }
  }
  const double throughput_ratio =
      thru_control > 0 ? static_cast<double>(thru_experiment) /
                             static_cast<double>(thru_control)
                       : 0.0;
  fp.gain_tpw =
      ampere::GainInTpw(throughput_ratio, config_.over_provision_ratio);
  fp.events = sim_.processed_events() - 1;  // Less the stop event.
  report_.breaker_tripped = is_campus_ ? campus_->AnyBreakerTripped()
                                       : single_dc_->AnyBreakerTripped();
  report_.replans = allocator_ != nullptr ? allocator_->replans() : 0;
  report_.series = db_.NumSeries();
  report_.sim_minutes = end.minutes();
  report_.cpu_s = ThreadCpuSeconds() - cpu_begin;
  report_.wall_s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  return report_;
}

}  // namespace

TraceReport RunTraced(const Workload& workload) {
  TracedLoop loop(workload);
  return loop.Run();
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

bool JournalMatchesReport(const ampere::obs::JournalSummary& journal,
                          const GroupReport& report) {
  const ampere::obs::JournalDomainSummary* d =
      journal.FindDomain(ControlledExperiment::kExperimentGroup);
  return d != nullptr && d->ticks == report.minutes.size() &&
         d->violations == static_cast<uint64_t>(report.violations) &&
         d->u_mean == report.u_mean && d->u_max == report.u_max &&
         d->p_mean == report.p_mean && d->p_max == report.p_max;
}

}  // namespace perfbench
