#include "perfbench/workloads.h"

#include "src/control/et_estimator.h"
#include "src/control/freeze_effect.h"

namespace perfbench {
namespace {

using ampere::EtEstimator;
using ampere::ExperimentConfig;
using ampere::FreezeEffectModel;
using ampere::SimTime;

// The paper's production row shape: 42-server racks of 16-core, 250 W
// machines idling at 65 % of rated power.
ampere::TopologyConfig Topology(int rows) {
  ampere::TopologyConfig topology;
  topology.num_rows = rows;
  topology.racks_per_row = 10;
  topology.servers_per_rack = 42;
  topology.server_capacity = ampere::Resources{16.0, 64.0};
  topology.power_model.rated_watts = 250.0;
  topology.power_model.idle_fraction = 0.65;
  return topology;
}

int64_t ServersOf(const ampere::TopologyConfig& topology) {
  return static_cast<int64_t>(topology.num_rows) * topology.racks_per_row *
         topology.servers_per_rack;
}

void SetArrivalRate(ExperimentConfig& config, double target_power) {
  config.workload.arrivals.base_rate_per_min =
      ampere::ArrivalRateForNormalizedPower(config.topology, config.workload,
                                            target_power,
                                            config.over_provision_ratio);
}

// Fig. 10's heavy arm with kr fixed at the fit fig10 obtains from its
// calibration run, so no calibration precedes the measured loop.
Workload PaperRowHeavy(uint64_t seed) {
  Workload w;
  ExperimentConfig& c = w.config;
  c.seed = seed;
  c.topology = Topology(1);
  c.over_provision_ratio = 0.25;
  SetArrivalRate(c, 1.00);
  c.workload.arrivals.ar_sigma = 0.015;
  c.workload.arrivals.burst_prob = 0.012;
  c.workload.arrivals.burst_factor = 2.2;
  c.controller.effect = FreezeEffectModel(0.0136);
  c.controller.et = EtEstimator::Constant(0.02);
  c.warmup = SimTime::Hours(2);
  c.duration = SimTime::Hours(24);
  w.servers = ServersOf(c.topology);
  return w;
}

// perf_closed_loop's hyperscale tier: 16 rows x 10 racks x 42 servers.
Workload HyperscaleDay(uint64_t seed) {
  Workload w;
  ExperimentConfig& c = w.config;
  c.seed = seed;
  c.topology = Topology(16);
  c.over_provision_ratio = 0.25;
  SetArrivalRate(c, 0.98);
  c.controller.effect = FreezeEffectModel(0.05);
  c.controller.et = EtEstimator::Constant(0.02);
  c.warmup = SimTime::Minutes(30);
  c.duration = SimTime::Hours(24);
  w.servers = ServersOf(c.topology);
  return w;
}

// Four paper rows as four DCs on one Simulation and one TimeSeriesDb, with
// the headroom allocator, spillover and per-server telemetry recording.
// DC 0 runs hot enough (1.25) that its frozen capacity backs up its queue
// and spillover moves jobs; at 0.99 or 1.15 it moves none.
Workload Campus4Record(uint64_t seed) {
  Workload w;
  ExperimentConfig& c = w.config;
  c.seed = seed;
  c.topology = Topology(1);
  c.over_provision_ratio = 0.25;
  c.controller.effect = FreezeEffectModel(0.05);
  c.controller.et = EtEstimator::Constant(0.02);
  c.monitor.record_servers = true;
  c.warmup = SimTime::Minutes(30);
  c.duration = SimTime::Hours(24);
  c.campus.enabled = true;
  c.campus.num_datacenters = 4;
  c.campus.dc_target_power = {1.25, 0.95, 0.90, 0.85};
  c.campus.allocator.policy = ampere::CampusAllocPolicy::kHeadroom;
  c.campus.allocator.replan_interval = SimTime::Minutes(15);
  c.campus.enable_spillover = true;
  c.campus.spillover_queue_threshold = 4;
  c.campus.spillover_max_jobs_per_pass = 16;
  w.campus = true;
  w.servers = ServersOf(c.topology) * c.campus.num_datacenters;
  return w;
}

}  // namespace

bool MakeWorkload(std::string_view name, uint64_t seed, bool short_horizon,
                  Workload* out) {
  if (name == "paper_row_heavy") {
    *out = PaperRowHeavy(seed);
  } else if (name == "hyperscale_day") {
    *out = HyperscaleDay(seed);
  } else if (name == "campus4_record") {
    *out = Campus4Record(seed);
  } else {
    return false;
  }
  if (short_horizon) {
    out->config.duration = SimTime::Hours(2);
  }
  return true;
}

}  // namespace perfbench
