// Figure 6: the control function F mapping realtime row power P_t to the
// freezing ratio u_t. Deterministic by construction (Eq. 13): zero below
// the threshold r_threshold = P_M - E_t, then a linear ramp of slope 1/kr,
// saturating at 1.0 (or the operational cap). The figure's caption notes
// the curve varies with E_t and kr; we print a family of curves.

#include "bench/bench_common.h"
#include "src/control/spcp.h"

namespace ampere {
namespace {

void Main() {
  bench::Header("Figure 6", "the control function F: P_t -> u_t", 0);

  struct Curve {
    double et;
    double kr;
  };
  const Curve curves[] = {{0.02, 0.05}, {0.05, 0.05}, {0.02, 0.10}};

  bench::Section("u_t as a function of normalized power (PM = 1.0)");
  std::printf("%8s", "P_t");
  for (const Curve& c : curves) {
    std::printf("   Et=%.2f,kr=%.2f", c.et, c.kr);
  }
  std::printf("\n");
  for (double p = 0.90; p <= 1.151; p += 0.01) {
    std::printf("%8.2f", p);
    for (const Curve& c : curves) {
      std::printf(" %16.3f", FreezeRatioFor(p, c.et, 1.0, c.kr, 1.0));
    }
    std::printf("\n");
  }

  bench::Section("shape checks vs. paper");
  // Threshold: u == 0 exactly up to PM - Et.
  bench::ShapeCheck(FreezeRatioFor(0.98, 0.02, 1.0, 0.05, 1.0) == 0.0 &&
                        FreezeRatioFor(0.981, 0.02, 1.0, 0.05, 1.0) > 0.0,
                    "control engages exactly at r_threshold = PM - Et");
  // Linear ramp with slope 1/kr.
  double u1 = FreezeRatioFor(1.00, 0.02, 1.0, 0.05, 1.0);
  double u2 = FreezeRatioFor(1.01, 0.02, 1.0, 0.05, 1.0);
  bench::ShapeCheck(std::abs((u2 - u1) - 0.01 / 0.05) < 1e-12,
                    "the ramp slope is 1/kr");
  // Saturation at 1.0.
  bench::ShapeCheck(FreezeRatioFor(1.20, 0.02, 1.0, 0.05, 1.0) == 1.0,
                    "u saturates at 1.0");
  // Larger Et shifts the threshold left; larger kr flattens the ramp.
  bench::ShapeCheck(FreezeRatioFor(0.97, 0.05, 1.0, 0.05, 1.0) >
                        FreezeRatioFor(0.97, 0.02, 1.0, 0.05, 1.0),
                    "a larger safety margin engages control earlier");
  bench::ShapeCheck(FreezeRatioFor(1.01, 0.02, 1.0, 0.10, 1.0) <
                        FreezeRatioFor(1.01, 0.02, 1.0, 0.05, 1.0),
                    "a stronger effect model needs fewer frozen servers");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
