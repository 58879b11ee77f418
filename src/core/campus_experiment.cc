#include "src/core/campus_experiment.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

CampusBudgetAllocator::CampusBudgetAllocator(
    double campus_total_watts, const CampusAllocatorConfig& config)
    : campus_total_watts_(campus_total_watts), config_(config),
      journal_(config.journal_capacity) {
  AMPERE_CHECK(campus_total_watts > 0.0);
}

std::vector<double> CampusBudgetAllocator::Replan(
    SimTime now, std::span<const CampusDcObservation> dcs,
    double total_scale) {
  AMPERE_CHECK(total_scale > 0.0) << "campus budget scale must stay positive";
  const double scaled_total = campus_total_watts_ * total_scale;
  std::vector<double> shares =
      AllocateCampusBudgets(scaled_total, dcs, config_);
  while (domain_names_.size() < dcs.size()) {
    domain_names_.push_back("campus/dc" +
                            std::to_string(domain_names_.size()));
  }
  for (size_t i = 0; i < dcs.size(); ++i) {
    // One audit record per DC per re-plan, reusing the controller's record
    // schema: the "decision" is the DC's new budget, u is its share
    // fraction of the campus cap, E_t is the allocator's drift margin.
    obs::DecisionRecord rec;
    rec.time = now;
    rec.domain = domain_names_[i];
    rec.observed_watts = dcs[i].observed_watts;
    rec.budget_watts = shares[i];
    rec.normalized_power =
        shares[i] > 0.0 ? dcs[i].observed_watts / shares[i] : 0.0;
    rec.et = config_.et_margin;
    rec.violation = rec.normalized_power > 1.0;
    rec.predicted_next = shares[i];
    rec.u = shares[i] / scaled_total;
    rec.n_servers = static_cast<uint32_t>(dcs.size());
    journal_.Append(rec);
  }
  ++replans_;
  return shares;
}

CampusResult RunCampusToResult(const ExperimentConfig& config) {
  CampusExperiment experiment(config);
  return experiment.Run();
}

std::string CampusExperiment::DcPrefix(DataCenterId id) {
  return "campus/dc" + std::to_string(id.value()) + "/";
}

CampusConfig CampusExperiment::MakeCampusConfig(
    const ExperimentConfig& config) {
  CampusConfig campus;
  campus.num_datacenters = config.campus.num_datacenters;
  campus.datacenter = config.topology;
  campus.dc_contract_watts = config.campus.dc_contract_watts;
  campus.campus_contract_watts = config.campus.campus_contract_watts;
  return campus;
}

CampusExperiment::CampusExperiment(const ExperimentConfig& config)
    : config_(config), rng_(config.seed),
      sim_(), campus_(MakeCampusConfig(config), &sim_),
      artifacts_(config_, "campus") {
  AMPERE_CHECK(config_.campus.enabled)
      << "CampusExperiment requires config.campus.enabled";
  AMPERE_CHECK(config_.enable_ampere)
      << "campus federation needs the per-DC controllers";
  AMPERE_CHECK(!config_.faults.any())
      << "fault injection is not wired into campus runs yet";
  AMPERE_CHECK(!config_.trace.active())
      << "workload trace record/replay is single-DC only";

  dcs_.reserve(static_cast<size_t>(campus_.num_datacenters()));
  for (int d = 0; d < campus_.num_datacenters(); ++d) {
    BuildDc(DataCenterId(d));
  }

  // The campus experiment cap is the sum of the initial rO-scaled per-DC
  // experiment budgets — the same total a static federation would carve up.
  double campus_cap = 0.0;
  for (const DcSlot& dc : dcs_) {
    campus_cap += dc.runtime->experiment_budget_watts();
  }
  allocator_ = std::make_unique<CampusBudgetAllocator>(
      campus_cap, config_.campus.allocator);
  artifacts_.SetPostmortemJournal(&allocator_->journal());
}

void CampusExperiment::BuildDc(DataCenterId id) {
  const size_t k = id.index();
  // Distinct forked streams per DC and per role, disjoint from the stream
  // ids ControlledExperiment uses (1..3, 77), so a campus run's randomness
  // is stable under adding components. The obs domain scopes the DC's
  // metrics under "dcK/" in the shared registry and recorder.
  const DcWiring wiring{
      .scheduler_stream = 100 + k,
      .monitor_stream = 300 + k,
      .series_prefix = DcPrefix(id),
      .obs_domain = obs::InternDomain("dc" + std::to_string(k) + "/")};
  DcSlot slot;
  slot.runtime = std::make_unique<DcRuntime>(
      config_, wiring, &campus_.dc(id), &sim_, &db_, rng_);

  // Per-DC workload: same product mix, per-DC intensity. dc_target_power
  // gives each DC its own normalized-power operating point (last value
  // repeats); empty keeps the caller's arrival rate everywhere.
  BatchWorkloadParams workload = config_.workload;
  if (!config_.campus.dc_target_power.empty()) {
    const size_t i =
        std::min(k, config_.campus.dc_target_power.size() - 1);
    workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
        config_.topology, config_.workload,
        config_.campus.dc_target_power[i], config_.over_provision_ratio);
  }
  slot.workload = std::make_unique<BatchWorkload>(
      workload, &sim_, &slot.runtime->scheduler(), &ids_, rng_.Fork(200 + k));
  dcs_.push_back(std::move(slot));
}

void CampusExperiment::ReplanBudgets(SimTime now) {
  std::vector<CampusDcObservation> observations;
  observations.reserve(dcs_.size());
  for (const DcSlot& dc : dcs_) {
    CampusDcObservation obs;
    obs.observed_watts = dc.runtime->monitor().LatestGroupWatts(
        DcRuntime::kExperimentGroup);
    obs.budget_watts = dc.runtime->current_experiment_budget();
    obs.contract_watts = dc.runtime->experiment_rated_watts();
    observations.push_back(obs);
  }
  const std::vector<double> shares =
      allocator_->Replan(now, observations, campus_budget_scale_);
  last_planned_scale_ = campus_budget_scale_;
  for (size_t k = 0; k < dcs_.size(); ++k) {
    dcs_[k].runtime->SetExperimentBudget(shares[k]);
    AMPERE_TIMELINE(0, now, obs::TimelineEventType::kCampusReplan,
                    shares[k], observations[k].observed_watts,
                    static_cast<uint64_t>(k));
  }
}

void CampusExperiment::SpilloverPass(SimTime now) {
  const size_t threshold = config_.campus.spillover_queue_threshold;
  for (size_t s = 0; s < dcs_.size(); ++s) {
    DcRuntime& source = *dcs_[s].runtime;
    if (source.scheduler().queue_length() <= threshold ||
        source.controller()->freeze_ratio(0) <= 0.0) {
      continue;
    }
    // Starved source: its queue is backed up while its controller holds
    // capacity frozen. Pick the sibling with the most observed headroom
    // against its *current* budget (ties break toward the lower DC id).
    size_t target = dcs_.size();
    double best_headroom = 0.0;
    for (size_t c = 0; c < dcs_.size(); ++c) {
      DcRuntime& candidate = *dcs_[c].runtime;
      if (c == s || candidate.scheduler().queue_length() > threshold) {
        continue;
      }
      const double headroom =
          candidate.current_experiment_budget() -
          candidate.monitor().LatestGroupWatts(DcRuntime::kExperimentGroup);
      if (headroom > best_headroom) {
        best_headroom = headroom;
        target = c;
      }
    }
    if (target == dcs_.size()) {
      continue;
    }
    const std::vector<JobSpec> moved = source.scheduler().TakePending(
        config_.campus.spillover_max_jobs_per_pass);
    for (const JobSpec& job : moved) {
      dcs_[target].runtime->scheduler().Submit(job);
    }
    dcs_[target].jobs_spilled_in += moved.size();
    spillover_jobs_ += moved.size();
    if (!moved.empty()) {
      AMPERE_TIMELINE(0, now, obs::TimelineEventType::kSpillover,
                      static_cast<double>(moved.size()), best_headroom,
                      (static_cast<uint64_t>(s) << 32) |
                          static_cast<uint64_t>(target));
    }
  }
}

CampusResult CampusExperiment::Run() {
  AMPERE_SPAN(0, "campus.run");
  // Install the flight recorder (if configured) for the whole federated
  // loop. Recording is passive — nothing downstream reads the recorder
  // during the run — so results are bit-identical with or without it.
  obs::ScopedFlightRecorder scoped_recorder(artifacts_.recorder());
  for (const DcSlot& dc : dcs_) {
    dc.workload->Start(SimTime());
  }
  const SimTime measure_start = config_.warmup;
  const SimTime end = config_.warmup + config_.duration;
  // Monitors fire at the same instants; the event queue's FIFO seq order
  // makes DC 0 sample first every minute, deterministically.
  for (const DcSlot& dc : dcs_) {
    dc.runtime->StartMonitor(end);
  }

  for (const DcSlot& dc : dcs_) {
    dc.runtime->StartMeasuring(measure_start, end);
  }
  if (config_.campus.enable_spillover) {
    sim_.SchedulePeriodic(measure_start + SimTime::Seconds(4),
                          SimTime::Minutes(1), [this, end](SimTime t) {
                            if (t >= end) {
                              return;
                            }
                            SpilloverPass(t);
                          });
  }
  if (!config_.budget_schedule.IsConstant()) {
    // Campus P(t): refresh the scale each minute between spillover (+4 s)
    // and the re-plan slot (+5 s). A scale change forces an extra re-plan
    // immediately rather than waiting out the replan_interval, so
    // mid-window curtailment reaches every DC controller within a minute.
    sim_.SchedulePeriodic(
        measure_start + SimTime::Millis(4500), SimTime::Minutes(1),
        [this, measure_start, end](SimTime t) {
          if (t >= end) {
            return;
          }
          campus_budget_scale_ =
              config_.budget_schedule.ScaleAt(t - measure_start);
          if (campus_budget_scale_ != last_planned_scale_) {
            ReplanBudgets(t);
          }
        });
  }
  sim_.SchedulePeriodic(measure_start + SimTime::Seconds(5),
                        config_.campus.allocator.replan_interval,
                        [this, end](SimTime t) {
                          if (t >= end) {
                            return;
                          }
                          ReplanBudgets(t);
                        });
  // One counting event for the whole campus.
  sim_.ScheduleAt(measure_start, [this] {
    for (const DcSlot& dc : dcs_) {
      dc.runtime->StartCounting();
    }
  });

  sim_.RunUntil(end);

  CampusResult result;
  result.dcs.reserve(dcs_.size());
  uint64_t thru_experiment = 0;
  uint64_t thru_control = 0;
  for (const DcSlot& dc : dcs_) {
    CampusDcResult out;
    dc.runtime->FillResult(out);
    // Report against the final allocator-assigned budget; minute points
    // already normalized against the budget in force at their minute.
    out.final_budget_watts = dc.runtime->current_experiment_budget();
    out.experiment.budget_watts = out.final_budget_watts;
    out.jobs_spilled_out = dc.runtime->scheduler().jobs_spilled_out();
    out.jobs_spilled_in = dc.jobs_spilled_in;
    thru_experiment += out.experiment.throughput_jobs;
    thru_control += out.control.throughput_jobs;
    result.jobs_submitted += out.jobs_submitted;
    result.jobs_completed += out.jobs_completed;
    result.dcs.push_back(std::move(out));
  }
  result.throughput_ratio =
      thru_control > 0 ? static_cast<double>(thru_experiment) /
                             static_cast<double>(thru_control)
                       : 0.0;
  result.gain_tpw =
      GainInTpw(result.throughput_ratio, config_.over_provision_ratio);
  result.spillover_jobs = spillover_jobs_;
  result.replans = allocator_->replans();
  result.breaker_tripped = campus_.AnyBreakerTripped();
  result.allocator_journal = allocator_->journal().Summarize();
  result.timeline_events = artifacts_.ExportTimeline(result.artifacts);
  return result;
}

}  // namespace ampere
