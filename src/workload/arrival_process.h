// Diurnal job arrival process.
//
// §4.1.1: arrival rate in the production cluster is 400-600 jobs/minute and
// "varies a lot over time"; Fig. 8 shows hour-scale swings plus minute-scale
// spikes. We model a non-homogeneous Poisson process whose rate combines a
// sinusoidal diurnal profile with a slow mean-reverting (AR(1)) modulation,
// plus rare short bursts that produce the spiky behaviour Fig. 9 quantifies.

#ifndef SRC_WORKLOAD_ARRIVAL_PROCESS_H_
#define SRC_WORKLOAD_ARRIVAL_PROCESS_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace ampere {

struct ArrivalProcessParams {
  double base_rate_per_min = 500.0;
  // Fractional diurnal swing: rate multiplier spans [1-a, 1+a] over the day.
  double diurnal_amplitude = 0.15;
  double peak_hour = 14.0;  // Hour of day with the highest rate.
  // Slow AR(1) modulation (per-minute step): x' = rho*x + N(0, s);
  // multiplier = exp(x). Gives each row/product its own wandering load.
  double ar_rho = 0.98;
  double ar_sigma = 0.01;
  // Burst model: with probability `burst_prob` per minute, the rate is
  // multiplied by `burst_factor` for that minute.
  double burst_prob = 0.01;
  double burst_factor = 1.6;
};

class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalProcessParams& params, Rng rng);

  // Instantaneous nominal rate (jobs/min) at `t` before Poisson sampling;
  // deterministic in the diurnal component, stochastic in AR/burst state.
  double CurrentRatePerMin(SimTime t) const;

  // Samples arrival offsets (relative to `minute_start`) for one 1-minute
  // window into `offsets`, replacing its contents, and advances the
  // AR/burst state. Offsets are sorted. Reusing one buffer across minutes
  // keeps the steady state allocation-free.
  void SampleMinute(SimTime minute_start, std::vector<SimTime>* offsets);

 private:
  ArrivalProcessParams params_;
  mutable Rng rng_;
  double ar_state_ = 0.0;
  bool burst_active_ = false;
  std::vector<SimTime> sort_scratch_;  // RadixSortTimes' second buffer.
};

// Sorts non-negative times ascending in O(n): an LSD radix sort on their
// microsecond counts, 9 bits a pass, only as many passes as the largest
// value needs (three for offsets within a minute). Times are plain
// integers, so equal ones are indistinguishable and the result equals
// std::sort's. `scratch` is the second buffer; the two may be swapped, and
// it is grown to `times`'s capacity, so reusing the pair allocates only
// when `times` itself outgrows its capacity.
void RadixSortTimes(std::vector<SimTime>* times, std::vector<SimTime>* scratch);

}  // namespace ampere

#endif  // SRC_WORKLOAD_ARRIVAL_PROCESS_H_
