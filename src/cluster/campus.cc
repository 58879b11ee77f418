#include "src/cluster/campus.h"

#include <algorithm>

#include "src/common/check.h"

namespace ampere {

Campus::Campus(const CampusConfig& config, Simulation* sim) : sim_(sim) {
  AMPERE_CHECK(sim != nullptr);
  AMPERE_CHECK(config.num_datacenters >= 1);
  dcs_.reserve(static_cast<size_t>(config.num_datacenters));
  dc_contract_watts_.reserve(static_cast<size_t>(config.num_datacenters));
  for (int d = 0; d < config.num_datacenters; ++d) {
    dcs_.push_back(std::make_unique<DataCenter>(config.datacenter, sim));
    // Contract resolution: explicit positive value, last-value-repeats for
    // short vectors, rated provisioning (the DC's provisioned budget total)
    // for missing or non-positive entries.
    double contract = 0.0;
    if (!config.dc_contract_watts.empty()) {
      const size_t i = std::min(static_cast<size_t>(d),
                                config.dc_contract_watts.size() - 1);
      contract = config.dc_contract_watts[i];
    }
    if (contract <= 0.0) {
      contract = dcs_.back()->total_budget_watts();
    }
    dc_contract_watts_.push_back(contract);
  }
  if (config.campus_contract_watts > 0.0) {
    campus_contract_watts_ = config.campus_contract_watts;
  } else {
    for (double w : dc_contract_watts_) {
      campus_contract_watts_ += w;
    }
  }
  AMPERE_CHECK(campus_contract_watts_ > 0.0);
}

int Campus::total_servers() const {
  int total = 0;
  for (const auto& dc : dcs_) {
    total += dc->num_servers();
  }
  return total;
}

double Campus::TotalPowerWatts() const {
  double total = 0.0;
  for (const auto& dc : dcs_) {
    total += dc->total_power_watts();
  }
  return total;
}

double Campus::ExactTotalPowerWatts() const {
  double total = 0.0;
  for (const auto& dc : dcs_) {
    total += dc->ExactTotalPowerWatts();
  }
  return total;
}

void Campus::ResummatePowerAggregates() {
  for (const auto& dc : dcs_) {
    dc->ResummatePowerAggregates();
  }
}

bool Campus::AnyBreakerTripped() const {
  for (const auto& dc : dcs_) {
    if (dc->AnyBreakerTripped()) {
      return true;
    }
  }
  return false;
}

}  // namespace ampere
