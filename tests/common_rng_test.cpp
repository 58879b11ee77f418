#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace ampere {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  Rng child1_again = parent.Fork(1);
  EXPECT_EQ(child1.NextU64(), child1_again.NextU64());
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Exponential(5.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, StandardNormalMoments) {
  Rng rng(42);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.StandardNormal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngTest, PoissonSmallMeanMatches) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(3.5));
  }
  EXPECT_NEAR(sum / n, 3.5, 0.05);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApproximation) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.Poisson(500.0);
    EXPECT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 500.0, 1.0);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(42);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(42);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, LogNormalMeanMatchesFormula) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 400000;
  const double mu = 0.5;
  const double sigma = 0.8;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormal(mu, sigma);
  }
  double expected = std::exp(mu + sigma * sigma / 2.0);
  EXPECT_NEAR(sum / n / expected, 1.0, 0.02);
}

// An inclusive UniformInt range [lo, hi].
struct RangeCase {
  int64_t lo;
  int64_t hi;
};

std::vector<RangeCase> SkipRanges() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  return {
      {0, 0},                        // 1
      {0, 1},                        // 2
      {0, 419},                      // 420: a paper row
      {0, 6719},                     // 6,720: the hyperscale tier
      {0, int64_t{1} << 32},         // 2^32 + 1
      {0, kMax},                     // 2^63: rejects half of all draws
      {kMin, kMax},                  // the full range
      {-5, 414},                     // 420 again, off zero
  };
}

TEST(RngTest, SkipUniformIntLeavesTheStreamWhereUniformIntDoes) {
  for (const RangeCase& c : SkipRanges()) {
    for (int count : {1, 3, 17}) {
      Rng drawn(20160411);
      Rng skipped(20160411);
      for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < count; ++i) {
          drawn.UniformInt(c.lo, c.hi);
        }
        skipped.SkipUniformInt(c.lo, c.hi, count);
        // Interleave another range so the memo is re-primed both ways.
        EXPECT_EQ(drawn.UniformInt(0, 9), skipped.UniformInt(0, 9));
      }
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(drawn.NextU64(), skipped.NextU64())
            << "range [" << c.lo << ", " << c.hi << "], count " << count
            << ", draw " << i;
      }
    }
  }
}

TEST(RngTest, UniformIntStaysInRangeAcrossMagnitudes) {
  Rng rng(7);
  for (const RangeCase& c : SkipRanges()) {
    for (int i = 0; i < 1000; ++i) {
      const int64_t v = rng.UniformInt(c.lo, c.hi);
      ASSERT_GE(v, c.lo);
      ASSERT_LE(v, c.hi);
    }
  }
}

}  // namespace
}  // namespace ampere
