// Soak: two simulated weeks of a 4-row production deployment at rO = 0.17
// (the paper's §6 deployment), with a controller failover every simulated
// day exercising the stateless-replacement path (§3.2: "if the controller
// fails, we can easily switch to a replacement").
//
// Expected shape: violation rate stays low and FLAT across the whole run
// (no drift, no degradation after failovers), breakers never trip, the
// frozen-set bookkeeping survives every replacement exactly, and the
// telemetry store grows linearly with time.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/controller.h"
#include "src/core/fleet.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160503;
constexpr int kRows = 4;
constexpr int kDays = 14;

void Main() {
  bench::Header("Soak: production deployment",
                "14 days, 4 controlled rows, daily controller failover",
                kSeed);

  FleetConfig config;
  config.seed = kSeed;
  config.topology.num_rows = kRows;
  config.topology.racks_per_row = 4;
  config.topology.servers_per_rack = 15;  // 60 per row.
  double row_budget = 60 * 250.0 / 1.17;  // rO = 0.17.
  config.topology.row_budget_watts = row_budget;
  // Pinned product floors (~0.85-0.88 of the scaled budget) plus a large
  // flexible stream that brings the hottest rows near their limits; the
  // flexible share is what Ampere can steer between rows.
  config.products = {{0.70, 4.0, 0.08, 0.012},
                     {0.71, 10.0, 0.06, 0.012},
                     {0.72, 16.0, 0.08, 0.012},
                     {0.70, 22.0, 0.06, 0.012}};
  config.flexible_target_power = 0.10;
  config.flexible.ar_sigma = 0.02;
  config.flexible.diurnal_amplitude = 0.15;
  Fleet fleet(config);

  // Register per-row monitor groups are implicit: the Fleet monitor records
  // row series; the controller needs groups, so re-register via the row
  // series names is not possible — instead use RowSeries-equivalent groups.
  // Fleet's monitor doesn't expose groups, so we add them before start.
  std::vector<ControlDomain> domains;
  for (int32_t r = 0; r < kRows; ++r) {
    std::string name = "soak_row" + std::to_string(r);
    std::vector<ServerId> servers{fleet.dc().servers_in_row(RowId(r)).begin(),
                                  fleet.dc().servers_in_row(RowId(r)).end()};
    fleet.monitor().RegisterGroup(name, servers);
    domains.push_back({name, std::move(servers), row_budget});
  }

  AmpereControllerConfig controller_config;
  controller_config.effect = FreezeEffectModel(0.013);
  controller_config.et = EtEstimator::Constant(0.025);
  auto controller = std::make_unique<AmpereController>(
      &fleet.scheduler(), &fleet.monitor(), controller_config);
  for (const ControlDomain& domain : domains) {
    controller->AddDomain(domain);
  }
  controller->Start(&fleet.sim(), SimTime::Minutes(1) + SimTime::Seconds(1));

  struct DayStats {
    int violations = 0;
    int samples = 0;
    double u_sum = 0.0;
  };
  std::vector<DayStats> days(kDays + 1);
  fleet.sim().SchedulePeriodic(
      SimTime::Minutes(2), SimTime::Minutes(1), [&](SimTime t) {
        auto day = static_cast<size_t>(t.hours() / 24.0);
        if (day > static_cast<size_t>(kDays)) {
          return;
        }
        for (int32_t r = 0; r < kRows; ++r) {
          ++days[day].samples;
          if (fleet.monitor().LatestGroupWatts(
                  "soak_row" + std::to_string(r)) > row_budget) {
            ++days[day].violations;
          }
          days[day].u_sum +=
              controller->freeze_ratio(static_cast<size_t>(r));
        }
      });

  // Daily failover at 03:30: replace the controller instance and rebuild
  // its state from the scheduler's frozen flags.
  size_t failovers = 0;
  bool rebuild_mismatch = false;
  fleet.sim().SchedulePeriodic(
      SimTime::Hours(3.5), SimTime::Hours(24), [&](SimTime) {
        std::vector<size_t> before;
        for (size_t d = 0; d < domains.size(); ++d) {
          before.push_back(controller->frozen_count(d));
        }
        controller = std::make_unique<AmpereController>(
            &fleet.scheduler(), &fleet.monitor(), controller_config);
        for (const ControlDomain& domain : domains) {
          controller->AddDomain(domain);
        }
        controller->RebuildStateFromScheduler();
        for (size_t d = 0; d < domains.size(); ++d) {
          if (controller->frozen_count(d) != before[d]) {
            rebuild_mismatch = true;
          }
        }
        controller->Start(&fleet.sim(),
                          fleet.sim().now() + SimTime::Seconds(30));
        ++failovers;
      });

  fleet.Run(SimTime::Hours(24.0 * kDays));

  bench::Section("per-day violation rate and mean freezing ratio");
  std::printf("%6s %12s %10s\n", "day", "viol_rate", "u_mean");
  double first_week_rate = 0.0;
  double second_week_rate = 0.0;
  for (int d = 0; d < kDays; ++d) {
    const DayStats& day = days[static_cast<size_t>(d)];
    double rate = day.samples > 0
                      ? static_cast<double>(day.violations) / day.samples
                      : 0.0;
    double u = day.samples > 0 ? day.u_sum / day.samples : 0.0;
    std::printf("%6d %11.2f%% %10.3f\n", d, 100.0 * rate, u);
    (d < kDays / 2 ? first_week_rate : second_week_rate) += rate;
  }
  first_week_rate /= kDays / 2.0;
  second_week_rate /= kDays / 2.0;
  std::printf("week 1 violation rate %.2f%%, week 2 %.2f%%; failovers %zu; "
              "telemetry points %zu\n",
              100.0 * first_week_rate, 100.0 * second_week_rate, failovers,
              fleet.db().TotalPoints());

  bench::Section("shape checks");
  bench::ShapeCheck(first_week_rate < 0.05 && second_week_rate < 0.05,
                    "violation rate stays low for the whole fortnight");
  bench::ShapeCheck(second_week_rate < first_week_rate + 0.02,
                    "no degradation over time (no controller drift)");
  bench::ShapeCheck(failovers >= static_cast<size_t>(kDays) - 1 &&
                        !rebuild_mismatch,
                    "every daily failover rebuilt the frozen set exactly");
  bench::ShapeCheck(!fleet.dc().AnyBreakerTripped(),
                    "no breaker ever tripped");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
