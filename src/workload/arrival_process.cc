#include "src/workload/arrival_process.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/common/check.h"

namespace ampere {

ArrivalProcess::ArrivalProcess(const ArrivalProcessParams& params, Rng rng)
    : params_(params), rng_(rng) {
  AMPERE_CHECK(params.base_rate_per_min >= 0.0);
  AMPERE_CHECK(params.diurnal_amplitude >= 0.0 &&
               params.diurnal_amplitude < 1.0);
  AMPERE_CHECK(params.ar_rho >= 0.0 && params.ar_rho < 1.0);
}

double ArrivalProcess::CurrentRatePerMin(SimTime t) const {
  double hours = t.hours();
  double phase =
      2.0 * std::numbers::pi * (hours - params_.peak_hour) / 24.0;
  double diurnal = 1.0 + params_.diurnal_amplitude * std::cos(phase);
  double modulation = std::exp(ar_state_);
  double burst = burst_active_ ? params_.burst_factor : 1.0;
  return params_.base_rate_per_min * diurnal * modulation * burst;
}

void ArrivalProcess::SampleMinute(SimTime minute_start,
                                  std::vector<SimTime>* offsets) {
  // Advance the slow modulation once per minute.
  ar_state_ = params_.ar_rho * ar_state_ +
              rng_.Normal(0.0, params_.ar_sigma);
  burst_active_ = rng_.Bernoulli(params_.burst_prob);

  double rate = CurrentRatePerMin(minute_start);
  int64_t n = rng_.Poisson(rate);
  offsets->clear();
  for (int64_t i = 0; i < n; ++i) {
    offsets->push_back(SimTime::Seconds(rng_.Uniform(0.0, 60.0)));
  }
  std::sort(offsets->begin(), offsets->end());
}

}  // namespace ampere
