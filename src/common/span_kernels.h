// Fixed-order reduction kernel over contiguous SoA spans.
//
// Floating-point addition is not associative, so a reduction's result is
// defined by its association order, and this simulator's byte-identity
// contract (docs/performance.md) requires every consumer to pick ONE order
// and use it everywhere. That order is SumSequential's strict
// left-to-right ((x0 + x1) + x2) + ..., the historical order baked into
// the committed goldens: telemetry rack/row sums and the periodic exact
// resummation use it.
//
// The kernel is allocation-free and takes a restrict-qualified pointer so
// the compiler need not give up on alias analysis.

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

}  // namespace span_kernels
}  // namespace ampere

#endif  // SRC_COMMON_SPAN_KERNELS_H_
