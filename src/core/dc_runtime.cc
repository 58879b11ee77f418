#include "src/core/dc_runtime.h"

#include "src/common/check.h"
#include "src/core/experiment.h"

namespace ampere {
namespace {

PowerMonitorConfig WithPrefix(PowerMonitorConfig config, std::string prefix) {
  config.series_prefix = std::move(prefix);
  return config;
}

}  // namespace

DcRuntime::DcRuntime(const ExperimentConfig& config, const DcWiring& wiring,
                     DataCenter* dc, Simulation* sim, TimeSeriesDb* db,
                     const Rng& rng)
    : dc_(dc), sim_(sim),
      over_provision_ratio_(config.over_provision_ratio),
      scheduler_(dc, config.scheduler, rng.Fork(wiring.scheduler_stream)),
      monitor_(dc, db, WithPrefix(config.monitor, wiring.series_prefix),
               rng.Fork(wiring.monitor_stream)) {
  // Parity split: even server ids form the experiment group, odd ids the
  // control group — a uniformly random, product-independent partition
  // (§4.1.2). Reserved servers never join either group.
  for (int32_t s = 0; s < dc_->num_servers(); ++s) {
    ServerId id(s);
    if (dc_->server(id).reserved()) {
      continue;
    }
    (s % 2 == 0 ? experiment_servers_ : control_servers_).push_back(id);
  }
  AMPERE_CHECK(!experiment_servers_.empty() && !control_servers_.empty());

  const double rated = dc_->power_model().rated_watts();
  const double scale = 1.0 + config.over_provision_ratio;
  experiment_rated_watts_ =
      static_cast<double>(experiment_servers_.size()) * rated;
  const double control_rated =
      static_cast<double>(control_servers_.size()) * rated;
  experiment_budget_watts_ = experiment_rated_watts_ / scale;
  control_budget_watts_ =
      config.scale_control_budget ? control_rated / scale : control_rated;
  current_experiment_budget_ = experiment_budget_watts_;
  monitor_.RegisterGroup(kExperimentGroup, experiment_servers_);
  monitor_.RegisterGroup(kControlGroup, control_servers_);

  // Observation-only scope: metrics land under the domain's prefix and
  // timeline events carry its id, so DCs sharing one registry/recorder keep
  // their signals apart.
  dc_->SetObsDomain(wiring.obs_domain);
  scheduler_.SetObsDomain(wiring.obs_domain);
  monitor_.SetObsDomain(wiring.obs_domain);
  if (config.enable_ampere) {
    controller_ = std::make_unique<AmpereController>(&scheduler_, &monitor_,
                                                     config.controller);
    controller_->SetObsDomain(wiring.obs_domain);
    ControlDomain domain;
    domain.group = kExperimentGroup;
    domain.servers = experiment_servers_;
    domain.budget_watts = experiment_budget_watts_;
    controller_->AddDomain(std::move(domain));
  }

  // Throughput accounting: a "placement" is a job accepted onto a group's
  // server (§4.1.3 counts accepted jobs as the throughput indicator).
  scheduler_.SetPlacementListener([this](const JobSpec&, ServerId server) {
    if (!counting_) {
      return;
    }
    if ((server.value() % 2) == 0) {
      ++experiment_report_.throughput_jobs;
      ++minute_thru_experiment_;
    } else {
      ++control_report_.throughput_jobs;
      ++minute_thru_control_;
    }
  });

  experiment_report_.name = wiring.series_prefix + kExperimentGroup;
  experiment_report_.budget_watts = experiment_budget_watts_;
  control_report_.name = wiring.series_prefix + kControlGroup;
  control_report_.budget_watts = control_budget_watts_;
}

void DcRuntime::StartMonitor(SimTime end) {
  const SimTime first = SimTime::Minutes(1);
  if (end >= first) {
    monitor_.PreallocateSamples(
        static_cast<size_t>((end - first).micros() /
                            monitor_.interval().micros()) +
        1);
  }
  monitor_.Start(first);
}

void DcRuntime::SetExperimentBudget(double watts) {
  current_experiment_budget_ = watts;
  if (controller_ != nullptr) {
    controller_->SetDomainBudget(0, watts);
  }
}

void DcRuntime::StartMeasuring(SimTime start, SimTime end) {
  if (controller_ != nullptr) {
    controller_->Start(sim_, start + SimTime::Seconds(1));
  }
  sim_->SchedulePeriodic(
      start + SimTime::Seconds(2), SimTime::Minutes(1), [this, end](SimTime t) {
        if (t >= end) {
          return;
        }
        const double exp_watts = monitor_.LatestGroupWatts(kExperimentGroup);
        const double ctl_watts = monitor_.LatestGroupWatts(kControlGroup);

        MinutePoint exp_point;
        exp_point.time = t;
        exp_point.power_watts = exp_watts;
        exp_point.normalized_power = exp_watts / current_experiment_budget_;
        exp_point.freeze_ratio =
            controller_ != nullptr ? controller_->freeze_ratio(0) : 0.0;
        exp_point.violation = exp_point.normalized_power > 1.0;
        exp_point.placements = static_cast<uint32_t>(minute_thru_experiment_);
        experiment_report_.minutes.push_back(exp_point);

        MinutePoint ctl_point;
        ctl_point.time = t;
        ctl_point.power_watts = ctl_watts;
        ctl_point.normalized_power = ctl_watts / control_budget_watts_;
        ctl_point.freeze_ratio = 0.0;
        ctl_point.violation = ctl_point.normalized_power > 1.0;
        ctl_point.placements = static_cast<uint32_t>(minute_thru_control_);
        control_report_.minutes.push_back(ctl_point);

        minute_thru_experiment_ = 0;
        minute_thru_control_ = 0;
      });
}

}  // namespace ampere
