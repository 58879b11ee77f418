#include "src/workload/arrival_process.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  RadixSortTimes(offsets, &sort_scratch_);
}

void RadixSortTimes(std::vector<SimTime>* times,
                    std::vector<SimTime>* scratch) {
  constexpr int kDigitBits = 9;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr uint64_t kDigitMask = kBuckets - 1;
  const size_t n = times->size();
  if (n < 2) {
    return;
  }
  AMPERE_CHECK(n <= std::numeric_limits<uint32_t>::max());
  uint64_t all_bits = 0;
  for (SimTime t : *times) {
    all_bits |= static_cast<uint64_t>(t.micros());
  }
  AMPERE_CHECK((all_bits >> 63) == 0) << "RadixSortTimes: negative time";
  const int width = static_cast<int>(std::bit_width(all_bits));

  // Match capacities, so swapping the buffers below never hands `times` a
  // smaller one: the pair then allocates only when `times` itself grows.
  if (scratch->capacity() < times->capacity()) {
    scratch->reserve(times->capacity());
  }
  scratch->resize(n);
  for (int shift = 0; shift < width; shift += kDigitBits) {
    // Digit histogram, then each digit's first output slot.
    std::array<uint32_t, kBuckets> next{};
    for (SimTime t : *times) {
      ++next[(static_cast<uint64_t>(t.micros()) >> shift) & kDigitMask];
    }
    uint32_t sum = 0;
    for (uint32_t& slot : next) {
      const uint32_t count = slot;
      slot = sum;
      sum += count;
    }
    const SimTime* src = times->data();
    SimTime* dst = scratch->data();
    for (size_t i = 0; i < n; ++i) {
      const auto key = static_cast<uint64_t>(src[i].micros());
      dst[next[(key >> shift) & kDigitMask]++] = src[i];
    }
    times->swap(*scratch);
  }
}

}  // namespace ampere
