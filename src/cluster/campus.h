// The campus model: N data centers under one shared utility contract.
//
// The paper runs one Ampere instance over one data center, but an
// MSRI-scale deployment is a campus of DCs splitting a single power
// contract. Campus promotes the topology one level: it owns N DataCenter
// instances bound to ONE shared Simulation (so cross-DC control decisions
// and spillover happen at well-ordered simulated instants) and aggregates
// power across them. Each DC keeps its own SoA power core, its own RAPL
// safety net, and its own breaker; the campus layer adds only id scoping,
// contract bookkeeping, and cross-DC summation — per-DC inner loops are
// unchanged.
//
// Power contracts: each DC has a contract (its share ceiling of the campus
// feed) and the campus has a total contract. Zeros mean "rated
// provisioning", mirroring TopologyConfig's budget convention: a DC's
// default contract is its rated total, and the campus default is the sum of
// the DC contracts.

#ifndef SRC_CLUSTER_CAMPUS_H_
#define SRC_CLUSTER_CAMPUS_H_

#include <memory>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/ids.h"
#include "src/sim/simulation.h"

namespace ampere {

struct CampusConfig {
  int num_datacenters = 4;
  // Every DC shares one topology shape (a campus is built in identical
  // phases). Heterogeneity across DCs enters through workload targets and
  // contracts, not rack counts.
  TopologyConfig datacenter;
  // Per-DC contract ceilings in watts. Shorter than num_datacenters: the
  // last value repeats; empty: rated provisioning per DC. Values <= 0 also
  // mean rated provisioning for that DC.
  std::vector<double> dc_contract_watts;
  // Campus-wide contract; 0 = sum of the per-DC contracts.
  double campus_contract_watts = 0.0;
};

class Campus {
 public:
  // `sim` must outlive the Campus. All DCs share it.
  Campus(const CampusConfig& config, Simulation* sim);

  Campus(const Campus&) = delete;
  Campus& operator=(const Campus&) = delete;

  int num_datacenters() const { return static_cast<int>(dcs_.size()); }
  DataCenter& dc(DataCenterId id) { return *dcs_[id.index()]; }
  const DataCenter& dc(DataCenterId id) const { return *dcs_[id.index()]; }

  // Campus-wide topology totals (every DC has the same shape).
  int total_servers() const;
  int servers_per_datacenter() const { return dcs_[0]->num_servers(); }

  // Resolved contracts (zeros already replaced by rated provisioning).
  double dc_contract_watts(DataCenterId id) const {
    return dc_contract_watts_[id.index()];
  }
  double campus_contract_watts() const { return campus_contract_watts_; }

  // Campus power: sum of the per-DC incremental totals (O(num_datacenters)
  // — each DC's total is already maintained incrementally), and the exact
  // freshly-summed counterpart for drift checks.
  double TotalPowerWatts() const;
  double ExactTotalPowerWatts() const;
  // Snaps every DC's incremental aggregates (serial, DC id order).
  void ResummatePowerAggregates();

  // True if any DC's breaker tripped.
  bool AnyBreakerTripped() const;

  Simulation* sim() const { return sim_; }

 private:
  Simulation* sim_;
  // DataCenter is non-copyable and holds interior pointers; own by pointer.
  std::vector<std::unique_ptr<DataCenter>> dcs_;
  std::vector<double> dc_contract_watts_;
  double campus_contract_watts_ = 0.0;
};

}  // namespace ampere

#endif  // SRC_CLUSTER_CAMPUS_H_
