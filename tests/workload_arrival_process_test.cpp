#include "src/workload/arrival_process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/stats/descriptive.h"

namespace ampere {
namespace {

ArrivalProcessParams FlatParams(double rate) {
  ArrivalProcessParams p;
  p.base_rate_per_min = rate;
  p.diurnal_amplitude = 0.0;
  p.ar_sigma = 0.0;
  p.burst_prob = 0.0;
  return p;
}

// One minute's offsets in a fresh buffer.
std::vector<SimTime> Sample(ArrivalProcess& proc, SimTime minute_start) {
  std::vector<SimTime> offsets;
  proc.SampleMinute(minute_start, &offsets);
  return offsets;
}

TEST(ArrivalProcessTest, FlatRateProducesExpectedMeanCount) {
  ArrivalProcess proc(FlatParams(200.0), Rng(1));
  double total = 0.0;
  const int minutes = 2000;
  for (int m = 0; m < minutes; ++m) {
    total += static_cast<double>(
        Sample(proc, SimTime::Minutes(m)).size());
  }
  EXPECT_NEAR(total / minutes, 200.0, 2.0);
}

TEST(ArrivalProcessTest, OffsetsWithinMinuteAndSorted) {
  ArrivalProcess proc(FlatParams(500.0), Rng(2));
  auto offsets = Sample(proc, SimTime::Minutes(10));
  ASSERT_FALSE(offsets.empty());
  SimTime prev;
  for (SimTime t : offsets) {
    EXPECT_GE(t, SimTime());
    EXPECT_LT(t, SimTime::Minutes(1));
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(ArrivalProcessTest, DiurnalProfilePeaksAtConfiguredHour) {
  ArrivalProcessParams p = FlatParams(100.0);
  p.diurnal_amplitude = 0.3;
  p.peak_hour = 14.0;
  ArrivalProcess proc(p, Rng(3));
  double rate_peak = proc.CurrentRatePerMin(SimTime::Hours(14));
  double rate_trough = proc.CurrentRatePerMin(SimTime::Hours(2));
  EXPECT_NEAR(rate_peak, 130.0, 1e-9);
  EXPECT_NEAR(rate_trough, 70.0, 1.0);
  EXPECT_GT(rate_peak, rate_trough);
}

TEST(ArrivalProcessTest, ArModulationWandersButStaysCentered) {
  ArrivalProcessParams p = FlatParams(100.0);
  p.ar_rho = 0.95;
  p.ar_sigma = 0.02;
  ArrivalProcess proc(p, Rng(4));
  OnlineStats counts;
  for (int m = 0; m < 5000; ++m) {
    counts.Add(static_cast<double>(
        Sample(proc, SimTime::Minutes(m)).size()));
  }
  EXPECT_NEAR(counts.mean(), 100.0, 4.0);
  // AR modulation inflates variance beyond pure Poisson (~100).
  EXPECT_GT(counts.variance(), 110.0);
}

TEST(ArrivalProcessTest, BurstsRaiseTailCounts) {
  ArrivalProcessParams p = FlatParams(100.0);
  p.burst_prob = 0.05;
  p.burst_factor = 2.0;
  ArrivalProcess proc(p, Rng(5));
  int high_minutes = 0;
  const int minutes = 4000;
  for (int m = 0; m < minutes; ++m) {
    // With bursts, some minutes should see ~2x the base rate; 160 is > 5
    // sigma for a Poisson(100), so only burst minutes land here.
    if (Sample(proc, SimTime::Minutes(m)).size() > 160) {
      ++high_minutes;
    }
  }
  double frac = static_cast<double>(high_minutes) / minutes;
  EXPECT_NEAR(frac, 0.05, 0.02);
}

TEST(ArrivalProcessTest, ReusedBufferMatchesFreshBuffers) {
  ArrivalProcess fresh(FlatParams(300.0), Rng(7));
  ArrivalProcess reused(FlatParams(300.0), Rng(7));
  std::vector<SimTime> buffer(1000, SimTime::Hours(5));  // Stale contents.
  for (int m = 0; m < 50; ++m) {
    reused.SampleMinute(SimTime::Minutes(m), &buffer);
    ASSERT_EQ(buffer, Sample(fresh, SimTime::Minutes(m))) << "minute " << m;
  }
}

TEST(ArrivalProcessTest, ZeroRateProducesNoArrivals) {
  ArrivalProcess proc(FlatParams(0.0), Rng(6));
  EXPECT_TRUE(Sample(proc, SimTime()).empty());
}

// RadixSortTimes against std::sort on minute offsets: uniform draws, heavy
// duplicates, and the extreme offsets 0 and 59.999999 s, at every size the
// workloads reach and beyond. Stale scratch contents must not leak in.
TEST(RadixSortTimesTest, MatchesStdSort) {
  Rng rng(17);
  std::vector<SimTime> scratch(7, SimTime::Hours(3));
  for (size_t n : {0u, 1u, 2u, 150u, 2300u, 100'000u}) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<SimTime> times;
      for (size_t i = 0; i < n; ++i) {
        int64_t us = rng.UniformInt(0, 59'999'999);
        if (variant == 1) {
          us = rng.UniformInt(0, 7) * 1'000'000;  // Few distinct values.
        } else if (variant == 2 && i % 3 != 2) {
          us = i % 3 == 0 ? 0 : 59'999'999;
        }
        times.push_back(SimTime::Micros(us));
      }
      std::vector<SimTime> expected = times;
      std::sort(expected.begin(), expected.end());
      RadixSortTimes(&times, &scratch);
      ASSERT_EQ(times, expected) << "n=" << n << " variant=" << variant;
    }
  }
}

// Keys wider than a minute take more passes; a day-scale spread and the
// largest representable time still sort exactly.
TEST(RadixSortTimesTest, WideKeysSortExactly) {
  Rng rng(18);
  std::vector<SimTime> times;
  for (int i = 0; i < 5000; ++i) {
    times.push_back(SimTime::Micros(rng.UniformInt(0, 86'400'000'000)));
  }
  times.push_back(SimTime::Micros(INT64_MAX));
  times.push_back(SimTime());
  std::vector<SimTime> expected = times;
  std::sort(expected.begin(), expected.end());
  std::vector<SimTime> scratch;
  RadixSortTimes(&times, &scratch);
  EXPECT_EQ(times, expected);
}

}  // namespace
}  // namespace ampere
