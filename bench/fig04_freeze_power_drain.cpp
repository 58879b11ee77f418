// Figure 4: average normalized power of ~80 high-power servers after being
// frozen. The paper observes a gradual decay from ~0.83 of rated power to
// near idle (~0.69) over about 35 minutes, as running jobs finish and no new
// ones arrive.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/power_monitor.h"
#include "src/workload/batch_workload.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160404;

void Main() {
  bench::Header("Figure 4", "power drain of ~80 frozen high-power servers",
                kSeed);

  Rng rng(kSeed);
  Simulation sim;
  TopologyConfig topo = bench::PaperRowTopology();
  DataCenter dc(topo, &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitorConfig mc;
  mc.noise_sigma_watts = 1.0;
  PowerMonitor monitor(&dc, &db, mc, rng.Fork(2));
  JobIdAllocator ids;
  BatchWorkloadParams params;
  // High utilization so the frozen set starts visibly above idle.
  params.arrivals.base_rate_per_min = 220.0;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  std::vector<ServerId> all;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    all.push_back(ServerId(s));
  }
  monitor.RegisterGroup("row", all);
  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  sim.RunUntil(SimTime::Hours(2));

  // Pick the ~80 highest-power servers (the paper froze "a group of about
  // 80 servers with relatively high power utilization").
  std::vector<ServerId> ranked = all;
  std::sort(ranked.begin(), ranked.end(), [&](ServerId a, ServerId b) {
    return dc.server_power_watts(a) > dc.server_power_watts(b);
  });
  ranked.resize(80);
  for (ServerId id : ranked) {
    scheduler.Freeze(id);
  }
  double rated = dc.power_model().rated_watts();

  bench::Section("mean power of frozen servers, normalized to rated");
  std::printf("%10s %14s\n", "minute", "norm_power");
  std::vector<double> trace;
  for (int minute = 0; minute <= 50; ++minute) {
    sim.RunUntil(SimTime::Hours(2) + SimTime::Minutes(minute));
    double mean = dc.PowerOfServers(ranked) / (80.0 * rated);
    trace.push_back(mean);
    std::printf("%10d %14.4f\n", minute, mean);
  }

  bench::Section("shape checks vs. paper");
  double idle_norm = topo.power_model.idle_fraction;
  bench::ShapeCheck(trace.front() > idle_norm + 0.08,
                    "frozen set starts well above idle (paper ~0.83)");
  bench::ShapeCheck(trace[35] < trace.front() - 0.5 * (trace.front() -
                                                       idle_norm),
                    "most of the drain completes within ~35 minutes");
  // The paper's curve also plateaus slightly above idle (~0.69 of rated):
  // the freeze does not kill jobs, and the duration distribution's long
  // tail leaves a few stragglers running past 50 minutes.
  bench::ShapeCheck(trace.back() < idle_norm + 0.05,
                    "power approaches the idle floor (paper plateaus ~0.69)");
  bool monotone_ish = true;
  for (size_t i = 5; i < trace.size(); i += 5) {
    if (trace[i] > trace[i - 5] + 0.01) {
      monotone_ish = false;
    }
  }
  bench::ShapeCheck(monotone_ish, "decay is monotone up to workload noise");
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  ampere::bench::RequireNoArgs(argc, argv);
  ampere::Main();
  return 0;
}
