#include "src/core/fleet.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/workload/duration_model.h"

namespace ampere {
namespace {

// Arrival rate that holds one row at `target_power` (fraction of the row's
// rated budget): Little's law through the power model, as in
// ArrivalRateForNormalizedPower but scoped to a single row.
double RowRateFor(const TopologyConfig& topology,
                  const DurationModelParams& durations, double target_power) {
  const PowerModelParams& pm = topology.power_model;
  double idle = pm.rated_watts * pm.idle_fraction;
  double dyn_range = pm.rated_watts - idle;
  double util = (pm.rated_watts * target_power - idle) / dyn_range;
  AMPERE_CHECK(util > 0.0 && util <= 1.0)
      << "row target power " << target_power << " unreachable";
  double row_cores = static_cast<double>(topology.racks_per_row) *
                     topology.servers_per_rack *
                     topology.server_capacity.cpu_cores;
  // Default demand mix: mean 2.0 cores/job (see BatchWorkload).
  const double mean_cores = 2.0;
  double mean_minutes = DurationModel(durations).TruncatedMeanMinutes();
  return util * row_cores / (mean_minutes * mean_cores);
}

}  // namespace

Fleet::Fleet(const FleetConfig& config)
    : config_(config), rng_(config.seed), sim_(),
      dc_(config.topology, &sim_), db_(),
      scheduler_(&dc_, config.scheduler, rng_.Fork(1)),
      monitor_(&dc_, &db_, config.monitor, rng_.Fork(2)) {
  AMPERE_CHECK(!config.products.empty()) << "need at least one product";
  for (int32_t r = 0; r < dc_.num_rows(); ++r) {
    const RowProduct& product =
        config_.products[std::min(static_cast<size_t>(r),
                                  config_.products.size() - 1)];
    double rate = RowRateFor(config_.topology, config_.durations,
                             product.target_power);
    row_rates_.push_back(rate);

    BatchWorkloadParams params;
    params.arrivals.base_rate_per_min = rate;
    params.arrivals.peak_hour = product.peak_hour;
    params.arrivals.diurnal_amplitude = product.diurnal_amplitude;
    params.arrivals.ar_sigma = product.ar_sigma;
    params.arrivals.burst_prob = product.burst_prob;
    params.arrivals.burst_factor = product.burst_factor;
    params.durations = config_.durations;
    params.row_affinity = RowId(r);
    workloads_.push_back(std::make_unique<BatchWorkload>(
        params, &sim_, &scheduler_, &ids_,
        rng_.Fork(100 + static_cast<uint64_t>(r))));
  }

  if (config_.flexible_target_power > 0.0) {
    // The flexible stream's per-row contribution sits on top of the idle
    // floor already accounted by the pinned products, so derive its rate
    // from the above-idle power increment alone.
    const PowerModelParams& pm = config_.topology.power_model;
    double dyn_range = pm.rated_watts * (1.0 - pm.idle_fraction);
    double util = config_.flexible_target_power * pm.rated_watts / dyn_range;
    AMPERE_CHECK(util > 0.0 && util <= 1.0)
        << "flexible_target_power unreachable";
    double fleet_cores = static_cast<double>(dc_.num_servers()) *
                         config_.topology.server_capacity.cpu_cores;
    double mean_minutes =
        DurationModel(config_.durations).TruncatedMeanMinutes();
    BatchWorkloadParams params;
    params.arrivals.base_rate_per_min =
        util * fleet_cores / (mean_minutes * 2.0);
    params.arrivals.peak_hour = config_.flexible.peak_hour;
    params.arrivals.diurnal_amplitude = config_.flexible.diurnal_amplitude;
    params.arrivals.ar_sigma = config_.flexible.ar_sigma;
    params.arrivals.burst_prob = config_.flexible.burst_prob;
    params.arrivals.burst_factor = config_.flexible.burst_factor;
    params.durations = config_.durations;
    workloads_.push_back(std::make_unique<BatchWorkload>(
        params, &sim_, &scheduler_, &ids_, rng_.Fork(999)));
  }
}

FleetResult RunFleetToResult(const FleetConfig& config, SimTime until) {
  Fleet fleet(config);
  fleet.Run(until);

  FleetResult result;
  for (int32_t r = 0; r < fleet.dc().num_rows(); ++r) {
    RowId row(r);
    double budget = fleet.dc().row_budget_watts(row);
    FleetRowSummary summary;
    double sum = 0.0;
    size_t n = 0;
    fleet.db()
        .SeriesStitched(PowerMonitor::RowSeries(row))
        .ForEachPoint([&](const TimePoint& p) {
          double normalized = p.value / budget;
          sum += normalized;
          summary.p_max = std::max(summary.p_max, normalized);
          ++n;
        });
    summary.p_mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
    result.rows.push_back(summary);
  }
  double dc_sum = 0.0;
  size_t dc_n = 0;
  fleet.db()
      .SeriesStitched(PowerMonitor::kTotalSeries)
      .ForEachPoint([&](const TimePoint& p) {
        dc_sum += p.value;
        result.dc_max_watts = std::max(result.dc_max_watts, p.value);
        ++dc_n;
      });
  result.dc_mean_watts = dc_n > 0 ? dc_sum / static_cast<double>(dc_n) : 0.0;
  result.jobs_submitted = fleet.scheduler().jobs_submitted();
  result.jobs_completed = fleet.scheduler().jobs_completed();
  fleet.scheduler().PublishJobCounters();
  return result;
}

void Fleet::Run(SimTime until) {
  AMPERE_SPAN(0, "fleet.run");
  if (!started_) {
    started_ = true;
    for (auto& workload : workloads_) {
      workload->Start(SimTime());
    }
    monitor_.Start(SimTime::Minutes(1));
  }
  sim_.RunUntil(until);
  // Fleet-level dispatch telemetry after the drain: how much work the rows
  // absorbed and where the fleet's power landed.
  obs::GaugeSet(0, "fleet.jobs_submitted",
                static_cast<double>(scheduler_.jobs_submitted()));
  obs::GaugeSet(0, "fleet.jobs_completed",
                static_cast<double>(scheduler_.jobs_completed()));
  obs::GaugeSet(0, "fleet.queue_length",
                static_cast<double>(scheduler_.queue_length()));
}

}  // namespace ampere
