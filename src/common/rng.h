// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component (arrival process, duration model, power noise,
// measurement noise, scheduler tie-breaking) owns its own Rng stream, forked
// from a master seed via SplitMix64. Re-running any benchmark with the same
// seed reproduces results bit-for-bit.
//
// Two flavours live here:
//   * Rng — a sequential xoshiro256** stream. Draws depend on how many draws
//     came before, so a consumer must always draw in the same order.
//   * CounterRng (free functions) — counter-based ("stateless") streams: a
//     variate is a pure function of (seed, stream, tick). Nothing is drawn
//     "before" anything else, so values are independent of evaluation
//     order — the telemetry sampler relies on it to read a whole span of
//     servers in one pass and to let a dropped reading consume nothing.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cmath>
#include <numbers>

namespace ampere {

// xoshiro256** by Blackman & Vigna (public domain reference implementation
// re-expressed), seeded through SplitMix64 as the authors recommend.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed);

  // Forks an independent stream; children of distinct (seed, stream_id) pairs
  // are statistically independent for simulation purposes.
  Rng Fork(uint64_t stream_id) const;

  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Advances the stream exactly as `count` calls of UniformInt(lo, hi)
  // would, with the same NextU64 draws and rejections, without computing
  // the values: for a caller that must consume draws whose results cannot
  // matter.
  void SkipUniformInt(int64_t lo, int64_t hi, int count);

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Exponential with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean);

  // Standard normal via Box-Muller (cached second variate).
  double StandardNormal();

  double Normal(double mu, double sigma) { return mu + sigma * StandardNormal(); }

  // Lognormal parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  int64_t Poisson(double mean);

 private:
  Rng() = default;

  // Sets the UniformInt memo below for `range`.
  void CacheRange(uint64_t range);

  uint64_t s_[4] = {};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
  // UniformInt rejection-limit memo; a range of 0 never occurs here (the
  // full-range case returns before the memo), so 0 means "empty".
  uint64_t cached_range_ = 0;
  uint64_t cached_limit_ = 0;
};

// Inline, so a caller drawing in a loop (the scheduler's probes) keeps the
// state in registers between draws.
inline uint64_t Rng::NextU64() {
  const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

inline int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  // Unsigned, so the full range wraps to 0 instead of overflowing.
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) {
    // Full-range request: [INT64_MIN, INT64_MAX].
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias. The rejection limit is a pure
  // function of the range; memoizing it serves the dominant pattern (the
  // scheduler drawing over a fixed server count on every call) one 64-bit
  // division cheaper, with a draw sequence identical to recomputing it.
  if (range != cached_range_) [[unlikely]] {
    CacheRange(range);
  }
  const uint64_t limit = cached_limit_;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + v % range);
}

// --- Counter-based (stateless) streams ------------------------------------
//
// counter_rng::At(seed, stream, tick) and friends are pure functions: the
// same arguments always yield the same bits, no matter how many other
// variates were evaluated, in what order, or on which thread. The mixer is
// a SplitMix64-style finalizer over an FNV-1a-combined key, which passes
// the usual avalanche checks and is cheap enough for per-reading use.
namespace counter_rng {

// SplitMix64 finalizer: bijective 64-bit avalanche mix.
constexpr uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

// Stage 1 of key derivation: folds (seed, tick) into a per-tick base. Batch
// consumers evaluating many streams at one tick (the sampler: one stream
// per server pair, one tick per minute) hoist this out of the per-stream
// loop — it is the loop-invariant two thirds of the mixing work.
constexpr uint64_t TickBase(uint64_t seed, uint64_t tick) {
  uint64_t h = Mix64(seed ^ 0xCBF29CE484222325ULL);
  return Mix64((h ^ tick) * kFnvPrime);
}

// Stage 2: folds the stream id into a tick base. One Mix64 per stream.
constexpr uint64_t StreamKey(uint64_t base, uint64_t stream) {
  return Mix64((base ^ stream) * kFnvPrime);
}

// Combines (seed, stream, tick) into one well-mixed 64-bit key — exactly
// StreamKey(TickBase(seed, tick), stream), so one-off evaluations and
// hoisted batch loops produce identical bits. FNV-1a-style folds between
// Mix64 rounds keep distinct argument triples from colliding under simple
// arithmetic relations (stream+1 vs tick-1, etc.).
constexpr uint64_t Key(uint64_t seed, uint64_t stream, uint64_t tick) {
  return StreamKey(TickBase(seed, tick), stream);
}

// Raw 64-bit variate for a key (a second independent word is Mix64(key^C)).
constexpr uint64_t U64(uint64_t key) { return Mix64(key); }

// Uniform double in [0, 1) from a key.
inline double UniformDouble(uint64_t key) {
  return static_cast<double>(U64(key) >> 11) * 0x1.0p-53;
}

// Two independent standard-normal variates from one key (one Box-Muller
// evaluation: z0 = r cos theta, z1 = r sin theta). Callers that map one
// variate per identity should derive the key from identity/2 and pick by
// parity — that halves the log/sqrt/trig cost versus one evaluation per
// identity while every variate stays a pure function of (key, lane).
struct NormalPair {
  double z0 = 0.0;
  double z1 = 0.0;
};
NormalPair StandardNormalPair(uint64_t key);

// The two uniform words of a key's Box-Muller pair: the key itself (a
// Mix64 output, fully avalanched) feeds u1, one further mix of a
// golden-ratio-offset copy feeds u2.
constexpr uint64_t SecondWord(uint64_t key) {
  return Mix64(key ^ 0x9E3779B97F4A7C15ULL);
}

// StandardNormalPair from its words: u1 = 1 - (a >> 11) 2^-53 in (0, 1],
// u2 = (b >> 11) 2^-53 in [0, 1), r = sqrt(-2 ln u1), theta = 2 pi u2,
// with libm's log, cos and sin. StandardNormalPair(key) ==
// NormalPairFromWords(key, SecondWord(key)) bit for bit.
NormalPair NormalPairFromWords(uint64_t a, uint64_t b);

// Single standard normal as a pure function of a key (the z0 lane).
double StandardNormal(uint64_t key);

// Bound on |ApproxNormal::Pair(key) - StandardNormalPair(key)| in either
// lane, for every key. With N = 2^kTableBits knots per table and linear
// interpolation (error at most h^2/8 max|f''| over a cell of width h):
//   ln u1:     |d ln| <= (1/N)^2 / 8 = 2.98e-8, since |(ln(1+f))''| <= 1;
//   r:         |d r| <= sqrt(2 |d ln|) = 2.441e-4, since
//              |sqrt(x) - sqrt(y)| <= sqrt(|x - y|);
//   cos, sin:  |d c| <= (2 pi / N)^2 / 8 = 1.18e-6;
//   z = r c:   |d z| <= |d r| (1 + |d c|) + r_max |d c|
//              = 2.441e-4 + 8.572 * 1.18e-6 = 2.543e-4,
// where r_max = sqrt(-2 ln 2^-53) = 8.572 is the largest radius the
// smallest u1 gives. The rounding of the table entries and of the
// interpolation arithmetic adds ~1e-14, so 2.6e-4 holds with margin.
inline constexpr double kApproxNormalErrorBound = 2.6e-4;

// Table-interpolated Box-Muller without libm: the same words, u1 and u2 as
// StandardNormalPair, within kApproxNormalErrorBound of it in both lanes.
//   ln u1 = e ln 2 + ln(1 + f) for u1 = 2^e (1 + f), with ln(1 + f)
//          linearly interpolated in a table indexed by f's top kTableBits
//          mantissa bits;
//   cos, sin of 2 pi u2 are linearly interpolated in a table indexed by
//          u2's top kTableBits bits.
// Not bit-identical to StandardNormalPair: a consumer whose result must
// match the exact pair certifies it against the bound (the power
// monitor's whole-watt readings do).
class ApproxNormal {
 public:
  static constexpr int kTableBits = 11;
  static constexpr size_t kTableSize = size_t{1} << kTableBits;

  // The process-wide tables, built with libm on the first call.
  static const ApproxNormal& Get();

  NormalPair Pair(uint64_t key) const {
    return PairFromWords(key, SecondWord(key));
  }
  inline NormalPair PairFromWords(uint64_t a, uint64_t b) const;

 private:
  ApproxNormal();

  struct Knot {
    double cos = 0.0;
    double sin = 0.0;
  };
  // ln(1 + j/N) and the angle 2 pi k/N at every knot, the closing knot
  // (j, k = N) included so a cell's upper neighbour always exists.
  double log1p_[kTableSize + 1] = {};
  Knot angle_[kTableSize + 1];
};

inline NormalPair ApproxNormal::PairFromWords(uint64_t a, uint64_t b) const {
  constexpr int kLogFracBits = 52 - kTableBits;  // Mantissa bits below j.
  constexpr int kAngleFracBits = 53 - kTableBits;  // u2 bits below k.
  constexpr double kLogFracScale =
      1.0 / static_cast<double>(uint64_t{1} << kLogFracBits);
  constexpr double kAngleFracScale =
      1.0 / static_cast<double>(uint64_t{1} << kAngleFracBits);
  // u1 in (0, 1] exactly as the exact pair forms it; never subnormal
  // (u1 >= 2^-53), so its fields are an exponent and a 52-bit mantissa.
  const double u1 = 1.0 - static_cast<double>(a >> 11) * 0x1.0p-53;
  const uint64_t bits = std::bit_cast<uint64_t>(u1);
  const double exponent =
      static_cast<double>(static_cast<int64_t>(bits >> 52) - 1023);
  const uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  // Cell j of the ln(1 + f) table, and the position t in [0, 1) within it.
  const size_t j = static_cast<size_t>(mantissa >> kLogFracBits);
  const double t =
      static_cast<double>(mantissa & ((uint64_t{1} << kLogFracBits) - 1)) *
      kLogFracScale;
  const double ln_u1 = exponent * std::numbers::ln2 +
                       (log1p_[j] + t * (log1p_[j + 1] - log1p_[j]));
  // ln u1 <= 0 up to rounding; the clamp keeps u1 = 1 at r = 0.
  const double r = std::sqrt(ln_u1 < 0.0 ? -2.0 * ln_u1 : 0.0);
  const uint64_t w2 = b >> 11;  // u2 = w2 2^-53.
  const size_t k = static_cast<size_t>(w2 >> kAngleFracBits);
  const double g =
      static_cast<double>(w2 & ((uint64_t{1} << kAngleFracBits) - 1)) *
      kAngleFracScale;
  const Knot& lo = angle_[k];
  const Knot& hi = angle_[k + 1];
  return NormalPair{r * (lo.cos + g * (hi.cos - lo.cos)),
                    r * (lo.sin + g * (hi.sin - lo.sin))};
}

}  // namespace counter_rng

}  // namespace ampere

#endif  // SRC_COMMON_RNG_H_
