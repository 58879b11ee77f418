#include "src/common/rng.h"

#include <cmath>

namespace ampere {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& w : s_) {
    w = SplitMix64(sm);
  }
  has_cached_normal_ = false;
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Mix the current state with the stream id; the child is seeded through
  // SplitMix64 so correlated parents still yield well-mixed children.
  uint64_t mix = s_[0] ^ Rotl(s_[1], 17) ^ Rotl(s_[2], 31) ^ s_[3];
  return Rng(mix ^ (0xA0761D6478BD642FULL * (stream_id + 1)));
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

void Rng::CacheRange(uint64_t range) {
  cached_range_ = range;
  cached_limit_ = ~uint64_t{0} - (~uint64_t{0} % range);
}

void Rng::SkipUniformInt(int64_t lo, int64_t hi, int count) {
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) {
    // Full range: every draw is accepted.
    for (int i = 0; i < count; ++i) {
      NextU64();
    }
    return;
  }
  if (range != cached_range_) {
    CacheRange(range);
  }
  const uint64_t limit = cached_limit_;
  for (int i = 0; i < count; ++i) {
    while (NextU64() >= limit) {
    }
  }
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::StandardNormal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

namespace counter_rng {

NormalPair StandardNormalPair(uint64_t key) {
  return NormalPairFromWords(key, SecondWord(key));
}

NormalPair NormalPairFromWords(uint64_t a, uint64_t b) {
  // u1 in (0, 1] so the log is finite; u2 in [0, 1).
  const double u1 =
      1.0 - static_cast<double>(a >> 11) * 0x1.0p-53;  // (0, 1].
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  return NormalPair{r * std::cos(theta), r * std::sin(theta)};
}

double StandardNormal(uint64_t key) { return StandardNormalPair(key).z0; }

const ApproxNormal& ApproxNormal::Get() {
  // Built on first use, once per process: not at any consumer's
  // construction, and never per pass.
  static const ApproxNormal tables;
  return tables;
}

ApproxNormal::ApproxNormal() {
  for (size_t i = 0; i <= kTableSize; ++i) {
    // i / N is exact, and so is the angle's u2 = i / N: a knot's cos and
    // sin are the exact pair's own values at that u2.
    const double x = static_cast<double>(i) / static_cast<double>(kTableSize);
    log1p_[i] = std::log1p(x);
    const double theta = 2.0 * std::numbers::pi * x;
    angle_[i] = Knot{std::cos(theta), std::sin(theta)};
  }
}

}  // namespace counter_rng

int64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction, clamped at zero.
    double v = Normal(mean, std::sqrt(mean)) + 0.5;
    return v < 0.0 ? 0 : static_cast<int64_t>(v);
  }
  double l = std::exp(-mean);
  int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > l);
  return k - 1;
}

}  // namespace ampere
