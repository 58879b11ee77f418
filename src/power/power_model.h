// Server power model.
//
// Modern servers draw a large idle floor plus a utilization-dependent dynamic
// component (§1: "actual power draw from a server depends on its
// utilization"). Fig. 4 of the paper shows a busy server at ~0.83 of rated
// power draining to ~0.69 (idle) as its jobs finish, so the default idle
// fraction is 0.65. DVFS throttling scales only the dynamic component (the
// frequency multiplier also scales job progress — see the cluster module).

#ifndef SRC_POWER_POWER_MODEL_H_
#define SRC_POWER_POWER_MODEL_H_

namespace ampere {

struct PowerModelParams {
  // Measured maximum draw ("rated power" per the paper's definition, not the
  // higher name-plate power). Typical 2015-era server: ~250 W (§2.1).
  double rated_watts = 250.0;
  // Idle draw as a fraction of rated.
  double idle_fraction = 0.65;
  // Curvature of the utilization -> dynamic power map; 1.0 = linear.
  double alpha = 1.0;
};

class ServerPowerModel {
 public:
  explicit ServerPowerModel(const PowerModelParams& params);

  // Instantaneous draw in watts for CPU `utilization` in [0, 1] running at
  // `freq_multiplier` in (0, 1]. Throttling scales the dynamic component.
  double PowerAt(double utilization, double freq_multiplier) const;

  double idle_watts() const { return idle_watts_; }
  double rated_watts() const { return params_.rated_watts; }
  // Dynamic (above-idle) draw at the given operating point.
  double DynamicPowerAt(double utilization, double freq_multiplier) const;

 private:
  PowerModelParams params_;
  double idle_watts_;
  double dynamic_range_watts_;
};

}  // namespace ampere

#endif  // SRC_POWER_POWER_MODEL_H_
