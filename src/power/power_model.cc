#include "src/power/power_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace ampere {

ServerPowerModel::ServerPowerModel(const PowerModelParams& params)
    : params_(params),
      idle_watts_(params.rated_watts * params.idle_fraction),
      dynamic_range_watts_(params.rated_watts * (1.0 - params.idle_fraction)) {
  AMPERE_CHECK(params.rated_watts > 0.0);
  AMPERE_CHECK(params.idle_fraction >= 0.0 && params.idle_fraction < 1.0);
  AMPERE_CHECK(params.alpha > 0.0);
}

double ServerPowerModel::DynamicPowerAt(double utilization,
                                        double freq_multiplier) const {
  double u = std::clamp(utilization, 0.0, 1.0);
  double f = std::clamp(freq_multiplier, 0.0, 1.0);
  double shaped = params_.alpha == 1.0 ? u : std::pow(u, params_.alpha);
  return dynamic_range_watts_ * shaped * f;
}

double ServerPowerModel::PowerAt(double utilization,
                                 double freq_multiplier) const {
  return idle_watts_ + DynamicPowerAt(utilization, freq_multiplier);
}

}  // namespace ampere
