// Fixed-order reduction kernels over contiguous SoA spans.
//
// Floating-point addition is not associative, so a reduction's result is
// defined by its association order, and this simulator's byte-identity
// contract (docs/performance.md) requires every consumer to pick ONE order
// and use it everywhere.
// Two orders live here:
//
//   * SumSequential — strict left-to-right: ((x0 + x1) + x2) + ...
//     This is the historical order baked into the committed goldens; every
//     aggregate a golden observes (telemetry rack/row sums, the periodic
//     exact resummation) must keep using it.
//
//   * SumBlocked4 — a fixed 4-lane blocked (pairwise-style) reduction:
//     lane j accumulates x[4i + j] left-to-right, the four lanes combine as
//     (l0 + l1) + (l2 + l3), and the tail (n % 4 elements) folds
//     left-to-right into that total. The order is a pure function of n, so
//     it is exactly as deterministic as the sequential order, and the
//     independent lanes let the compiler keep them in one vector register.
//     Used by bulk mutation paths (row capping) whose aggregates no golden
//     pins to the sequential order.
//
// All kernels are allocation-free and take restrict-qualified pointers so
// the compiler can vectorize without alias analysis giving up.

#ifndef SRC_COMMON_SPAN_KERNELS_H_
#define SRC_COMMON_SPAN_KERNELS_H_

#include <cstddef>

namespace ampere {
namespace span_kernels {

// Strict left-to-right sum — the golden order. The serial dependence chain
// cannot vectorize, but the restrict-qualified flat loop still unrolls and
// schedules well.
inline double SumSequential(const double* __restrict x, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

// Fixed 4-lane blocked reduction (see the header comment for the exact
// association). Auto-vectorizes to one vector accumulator at -O3.
inline double SumBlocked4(const double* __restrict x, size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  const size_t main = n & ~size_t{3};
  for (size_t i = 0; i < main; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (size_t i = main; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

}  // namespace span_kernels
}  // namespace ampere

#endif  // SRC_COMMON_SPAN_KERNELS_H_
