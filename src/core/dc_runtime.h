// One data center's §4.1.2 controlled-experiment wiring, shared by
// ControlledExperiment (one DC) and CampusExperiment (one per DC). It owns
// the scheduler and monitor, the parity split into groups with their
// rO-scaled budgets, the controller, the placement counters, the
// per-minute group recorder and the per-DC result fill. The caller picks
// the RNG streams, series prefix and obs domain (DcWiring) and the order in
// which DCs start; the runtime never depends on which driver owns it.

#ifndef SRC_CORE_DC_RUNTIME_H_
#define SRC_CORE_DC_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/core/controller.h"
#include "src/core/metrics.h"
#include "src/obs/metrics.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulation.h"
#include "src/telemetry/power_monitor.h"
#include "src/telemetry/timeseries_db.h"

namespace ampere {

struct ExperimentConfig;

// Where one DC's randomness, series and obs signals live.
struct DcWiring {
  uint64_t scheduler_stream = 0;
  uint64_t monitor_stream = 0;
  // Prepended to the monitor's series and the group report names.
  std::string series_prefix;
  obs::DomainId obs_domain = 0;  // 0 = root: no metrics prefix.
};

class DcRuntime {
 public:
  static constexpr const char* kExperimentGroup = "experiment";
  static constexpr const char* kControlGroup = "control";

  // `pool` (may be null) shards the DC's and the monitor's batch passes.
  DcRuntime(const ExperimentConfig& config, const DcWiring& wiring,
            DataCenter* dc, Simulation* sim, TimeSeriesDb* db, const Rng& rng,
            ThreadPool* pool);
  DcRuntime(const DcRuntime&) = delete;
  DcRuntime& operator=(const DcRuntime&) = delete;

  // Starts the monitor's samples at t = 1 min with every series it records
  // reserved up front for the samples through `end`; grown by doubling
  // instead, a day's ~1,470 points would end in 2,048-point buffers.
  void StartMonitor(SimTime end);
  // Over the measured window [start, end): the controller (if any) ticks
  // 1 s after each minute's sample, so decisions see fresh data, and the
  // recorder logs both groups 2 s after it, after the decision.
  void StartMeasuring(SimTime start, SimTime end);
  // Placements count toward throughput from now on.
  void StartCounting() { counting_ = true; }
  // The experiment budget in force from now on: re-targets the controller's
  // domain and the recorder's normalization together.
  void SetExperimentBudget(double watts);

  // Finalizes the group reports and fills the per-DC fields shared by
  // ExperimentResult and CampusDcResult.
  template <typename Result>
  void FillResult(Result& out);

  Scheduler& scheduler() { return scheduler_; }
  PowerMonitor& monitor() { return monitor_; }
  AmpereController* controller() { return controller_.get(); }
  const std::vector<ServerId>& experiment_servers() const {
    return experiment_servers_;
  }
  const std::vector<ServerId>& control_servers() const {
    return control_servers_;
  }
  // rO-scaled budgets from the split (the experiment one before any
  // SetExperimentBudget), and the experiment group's rated power.
  double experiment_budget_watts() const { return experiment_budget_watts_; }
  double control_budget_watts() const { return control_budget_watts_; }
  double experiment_rated_watts() const { return experiment_rated_watts_; }
  // The experiment budget in force. The recorder normalizes against it, so
  // a curtailed or re-planned minute counts violations against its own cap.
  double current_experiment_budget() const {
    return current_experiment_budget_;
  }

 private:
  DataCenter* dc_;
  Simulation* sim_;
  double over_provision_ratio_;
  Scheduler scheduler_;
  PowerMonitor monitor_;
  std::unique_ptr<AmpereController> controller_;

  std::vector<ServerId> experiment_servers_;
  std::vector<ServerId> control_servers_;
  double experiment_rated_watts_ = 0.0;
  double experiment_budget_watts_ = 0.0;
  double control_budget_watts_ = 0.0;
  double current_experiment_budget_ = 0.0;

  // Minute points and window throughput (§4.1.3) accumulate in place.
  GroupReport experiment_report_;
  GroupReport control_report_;
  uint64_t minute_thru_experiment_ = 0;
  uint64_t minute_thru_control_ = 0;
  bool counting_ = false;
};

template <typename Result>
void DcRuntime::FillResult(Result& out) {
  experiment_report_.Finalize();
  control_report_.Finalize();
  out.experiment = experiment_report_;
  out.control = control_report_;
  out.throughput_ratio =
      out.control.throughput_jobs > 0
          ? static_cast<double>(out.experiment.throughput_jobs) /
                static_cast<double>(out.control.throughput_jobs)
          : 0.0;
  out.gain_tpw = GainInTpw(out.throughput_ratio, over_provision_ratio_);
  out.jobs_submitted = scheduler_.jobs_submitted();
  out.jobs_completed = scheduler_.jobs_completed();
  out.final_queue_length = scheduler_.queue_length();
  out.breaker_tripped = dc_->AnyBreakerTripped();
  if (controller_ != nullptr) {
    out.journal = controller_->journal().Summarize();
  }
}

}  // namespace ampere

#endif  // SRC_CORE_DC_RUNTIME_H_
