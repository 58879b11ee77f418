// Baseline: server consolidation via sleep states (§5.1 related work).
//
// PowerNap-style systems save energy by sleeping idle servers and waking
// them on demand. The paper's critique: transitions take tens of seconds,
// so demand has to queue behind cold servers — "it is very hard to
// guarantee the SLA requirements". This bench quantifies the trade on a
// diurnal workload (busy day, quiet night):
//   * always-on  — every server idles at 65 % of rated power all night;
//   * consolidation — idle servers sleep at 6 %, but job-start latency
//     spikes whenever demand returns faster than servers boot.
// Ampere is orthogonal: it raises capacity-per-watt without touching jobs,
// while consolidation cuts idle energy at an SLA price; the shapes here are
// the reason the paper chose the freeze interface for its goal.
//
// The always-on and consolidation arms are independent two-day simulations
// and run in parallel through the scenario harness.

#include <array>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/consolidation.h"
#include "src/stats/percentile.h"
#include "src/workload/batch_workload.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160501;

// Records submit->placement waits while forwarding to the scheduler.
class WaitTrackingSink : public JobSink {
 public:
  WaitTrackingSink(Scheduler* scheduler, Simulation* sim)
      : scheduler_(scheduler), sim_(sim) {
    scheduler_->SetPlacementListener(
        [this](const JobSpec& job, ServerId) {
          auto it = submit_times_.find(job.id);
          if (it != submit_times_.end()) {
            double wait = (sim_->now() - it->second).minutes();
            waits_minutes_.push_back(wait);
            int hour = it->second.hour_of_day();
            if (hour >= 22 || hour < 7) {
              night_waits_minutes_.push_back(wait);
            }
            submit_times_.erase(it);
          }
        });
  }

  void Submit(const JobSpec& job) override {
    submit_times_[job.id] = sim_->now();
    scheduler_->Submit(job);
  }

  const std::vector<double>& waits_minutes() const { return waits_minutes_; }
  // Waits of jobs submitted during the quiet night hours (22:00-07:00),
  // where consolidation has put most of the fleet to sleep.
  const std::vector<double>& night_waits_minutes() const {
    return night_waits_minutes_;
  }

 private:
  Scheduler* scheduler_;
  Simulation* sim_;
  std::unordered_map<JobId, SimTime> submit_times_;
  std::vector<double> waits_minutes_;
  std::vector<double> night_waits_minutes_;
};

struct ArmResult {
  double energy_kwh = 0.0;
  double wait_mean_min = 0.0;
  double wait_p99_min = 0.0;
  double night_delayed_fraction = 0.0;  // Night jobs waiting > 3 s.
  double night_wait_max_min = 0.0;
  uint64_t completed = 0;
  uint64_t sleeps = 0;
};

ArmResult RunArm(bool consolidate) {
  Rng rng(kSeed);
  Simulation sim;
  TopologyConfig topo;
  topo.num_rows = 1;
  topo.racks_per_row = 4;
  topo.servers_per_rack = 15;  // 60 servers.
  topo.wake_latency = SimTime::Seconds(45);
  DataCenter dc(topo, &sim);
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  WaitTrackingSink sink(&scheduler, &sim);

  JobIdAllocator ids;
  BatchWorkloadParams params;
  // Deep diurnal swing: ~80 % CPU at the afternoon peak, ~20 % at night,
  // never saturated — an always-on fleet starts every job immediately.
  params.arrivals.base_rate_per_min = 27.0;
  params.arrivals.diurnal_amplitude = 0.6;
  params.arrivals.peak_hour = 14.0;
  // Occasional sharp bursts: a surge arriving while most of the fleet
  // sleeps must queue behind 45-second boots — the SLA hazard.
  params.arrivals.burst_prob = 0.015;
  params.arrivals.burst_factor = 6.0;
  BatchWorkload workload(params, &sim, &sink, &ids, rng.Fork(2));

  std::unique_ptr<ConsolidationController> controller;
  if (consolidate) {
    ConsolidationConfig config;
    // Aggressive: keep the awake fleet hot. This maximizes savings and is
    // where the latency hazard lives.
    config.sleep_below_utilization = 0.75;
    config.wake_above_utilization = 0.85;
    config.min_awake = 6;
    config.step = 2;
    controller = std::make_unique<ConsolidationController>(&dc, &scheduler,
                                                           config);
    controller->Start(&sim, SimTime::Minutes(1));
  }

  workload.Start(SimTime());
  struct Acc {
    double watt_minutes = 0.0;
    int samples = 0;
  };
  Acc acc;
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime) {
                         acc.watt_minutes += dc.total_power_watts();
                         ++acc.samples;
                       });
  sim.RunUntil(SimTime::Hours(48));

  ArmResult result;
  result.energy_kwh = acc.watt_minutes / 60.0 / 1000.0;
  const auto& waits = sink.waits_minutes();
  if (!waits.empty()) {
    double sum = 0.0;
    for (double w : waits) {
      sum += w;
    }
    result.wait_mean_min = sum / static_cast<double>(waits.size());
    result.wait_p99_min = Percentile(waits, 0.999);
  }
  if (!sink.night_waits_minutes().empty()) {
    size_t delayed = 0;
    for (double w : sink.night_waits_minutes()) {
      if (w > 0.05) {
        ++delayed;
      }
      result.night_wait_max_min = std::max(result.night_wait_max_min, w);
    }
    result.night_delayed_fraction =
        static_cast<double>(delayed) /
        static_cast<double>(sink.night_waits_minutes().size());
  }
  result.completed = scheduler.jobs_completed();
  result.sleeps = controller != nullptr ? controller->sleeps_initiated() : 0;
  return result;
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Baseline: sleep-state consolidation (§5.1)",
                "energy vs job-start latency over 2 diurnal days", kSeed);

  const std::array<bool, 2> arms{false, true};
  auto grid = harness::RunGrid(
      arms,
      [](bool consolidate, size_t) {
        return harness::GridMeta{consolidate ? "consolidation" : "always-on",
                                 kSeed};
      },
      [](bool consolidate, harness::RunContext& context) {
        ArmResult r = RunArm(consolidate);
        context.Metric("energy_kWh", r.energy_kwh);
        context.Metric("wait_p999_min", r.wait_p99_min);
        context.Metric("night_delayed", r.night_delayed_fraction);
        context.Metric("night_max_min", r.night_wait_max_min);
        context.Metric("completed", static_cast<double>(r.completed));
        context.Metric("sleeps", static_cast<double>(r.sleeps));
        return r;
      },
      args.runner);

  bench::Section("48 h, 60 servers, deep diurnal workload");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const ArmResult& always_on = grid.values[0];
  const ArmResult& consolidated = grid.values[1];
  double savings = 1.0 - consolidated.energy_kwh / always_on.energy_kwh;
  std::printf("energy savings: %.1f%%; night jobs delayed >3s: %.2f%% (max "
              "wait %.1f min)\n",
              100.0 * savings,
              100.0 * consolidated.night_delayed_fraction,
              consolidated.night_wait_max_min);

  bench::Section("shape checks (the §5.1 trade-off)");
  bench::ShapeCheck(savings > 0.05,
                    "consolidation saves real energy on diurnal workloads");
  bench::ShapeCheck(always_on.night_delayed_fraction < 0.0005,
                    "the always-on fleet starts night jobs immediately "
                    "(it has massive headroom at night)");
  bench::ShapeCheck(consolidated.night_delayed_fraction >
                        10.0 * always_on.night_delayed_fraction + 0.002,
                    "consolidation delays a real fraction of night jobs by "
                    "up to minutes when bursts hit a sleeping fleet (the "
                    "SLA risk the paper cites)");
  bench::ShapeCheck(consolidated.completed >= always_on.completed * 98 / 100,
                    "throughput is roughly preserved (work is delayed, not "
                    "lost)");
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
