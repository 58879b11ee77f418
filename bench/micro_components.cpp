// Micro-benchmarks (google-benchmark) for the hot components: controller
// decision latency, telemetry sampling, scheduler placement, SPCP/PCP
// solvers, and the event core. These quantify that the control plane is
// cheap enough for the paper's one-minute cadence with enormous headroom.
//
// The instrumented paths (controller tick, monitor sample, scheduler
// placement) run under a private obs::MetricsRegistry so their counters and
// spans land in a bench-local registry, exactly as harness runs do.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/span_kernels.h"
#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/control/pcp.h"
#include "src/control/spcp.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/power_monitor.h"
#include "src/workload/arrival_process.h"
#include "src/workload/batch_workload.h"

// --- Global allocation counter ------------------------------------------
//
// Every replaceable operator new forwards to malloc and bumps a relaxed
// atomic, so steady-state cases can assert a zero allocation delta. Counts
// are only ever read as before/after differences around controlled loops,
// so the benchmark framework's own allocations never pollute a reading.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   ((size + static_cast<std::size_t>(align) -
                                     1) /
                                    static_cast<std::size_t>(align)) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
// Not inlined: GCC 12 would see `delete` expressions in this file free a
// pointer from `new` and warn (-Wmismatched-new-delete), though the
// replacement `operator new` above allocates with malloc.
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ampere {
namespace {

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

struct Rig {
  Simulation sim;
  DataCenter dc;
  TimeSeriesDb db;
  Scheduler scheduler;
  PowerMonitor monitor;

  static TopologyConfig Topology(int rows) {
    TopologyConfig config;
    config.num_rows = rows;
    config.racks_per_row = 10;
    config.servers_per_rack = 42;
    return config;
  }

  explicit Rig(int rows)
      : dc(Topology(rows), &sim),
        scheduler(&dc, SchedulerConfig{}, Rng(1)),
        monitor(&dc, &db, PowerMonitorConfig{}, Rng(2)) {}
};

void BM_SpcpSolve(benchmark::State& state) {
  double p = 0.99;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveSpcp(p, 0.02, 1.0, 0.05));
  }
}
BENCHMARK(BM_SpcpSolve);

void BM_PcpGreedyHorizon(benchmark::State& state) {
  PcpProblem problem;
  problem.p0 = 0.98;
  problem.e.assign(static_cast<size_t>(state.range(0)), 0.03);
  problem.pm = 1.0;
  problem.f = [](double u) { return 0.05 * u; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolvePcpGreedy(problem));
  }
}
BENCHMARK(BM_PcpGreedyHorizon)->Arg(1)->Arg(10)->Arg(60);

void BM_MonitorSampleRow(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(static_cast<int>(state.range(0)));
  int64_t minute = 1;
  for (auto _ : state) {
    rig.monitor.SampleOnce(
        SimTime::Minutes(static_cast<double>(minute++)));
  }
  state.SetItemsProcessed(state.iterations() * rig.dc.num_servers());
}
BENCHMARK(BM_MonitorSampleRow)->Arg(1)->Arg(4);

// Group sampling in steady state over range(0) rows, every server holding a
// task, with the group registered AFTER PreallocateSamples — the ordering
// that once left the group's series unreserved (the first sample now builds
// the monitor's frame, groups included, and reserves it to the last
// preallocation). Before the timed loop the case hard-asserts a zero
// allocation delta across 64 sample passes, so a regression fails the run
// loudly instead of just shifting a number.
void BM_GroupSamplingSteadyState(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  const int rows = static_cast<int>(state.range(0));
  // Sample rows reserved per rig, scaled down with the fleet so the hot
  // block stays about the same size at every row count.
  const size_t prealloc = (size_t{1} << 15) / static_cast<size_t>(rows);
  int64_t minute = 1;
  size_t taken = 0;
  auto make_rig = [&] {
    auto rig = std::make_unique<Rig>(rows);
    // Preallocation FIRST, group registration SECOND: the previously buggy
    // order. The frame built at the first sample must cover the group.
    rig->monitor.PreallocateSamples(prealloc + 16);
    std::vector<ServerId> all;
    all.reserve(static_cast<size_t>(rig->dc.num_servers()));
    for (int32_t s = 0; s < rig->dc.num_servers(); ++s) {
      all.push_back(ServerId(s));
      rig->dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{8.0, 8.0},
                                              SimTime::Hours(100000)});
    }
    rig->monitor.RegisterGroup("all_servers", all);
    minute = 1;
    taken = 0;
    return rig;
  };
  auto rig = make_rig();
  auto sample = [&] {
    rig->monitor.SampleOnce(SimTime::Minutes(static_cast<double>(minute++)));
    ++taken;
  };
  for (int i = 0; i < 4; ++i) {
    sample();  // Warmup: first passes may fault pages / prime maps.
  }
  const uint64_t allocs_before = AllocCount();
  for (int i = 0; i < 64; ++i) {
    sample();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "group sampling allocated in steady state after "
         "PreallocateSamples -> RegisterGroup";
  for (auto _ : state) {
    if (taken >= prealloc) {
      state.PauseTiming();
      rig = make_rig();
      for (int i = 0; i < 4; ++i) {
        sample();
      }
      state.ResumeTiming();
    }
    sample();
  }
  state.SetItemsProcessed(state.iterations() * rig->dc.num_servers());
  state.SetLabel("prealloc_then_register_group_zero_alloc");
}
BENCHMARK(BM_GroupSamplingSteadyState)->Arg(1)->Arg(16);

// --- Reference vs fast kernels -------------------------------------------
//
// Three hot kernels, each with its reference twin under arm 0 and the fast
// form under arm 1. Every fast arm hard-asserts (a) bit-identity against
// the reference arm over the same inputs and (b) a zero allocation delta
// across the measured region — the determinism and zero-alloc contracts
// are enforced here in the bench, not just in tests.

// Whole-watt noisy readings of one clean pass over range(0) servers (420: a
// paper row; 6,720: the hyperscale fleet): Arg(0) rounds truth + sigma * z
// with the exact per-pair StandardNormalPair (libm log/cos/sin), Arg(1)
// runs the monitor's certified kernel (PowerMonitor::ReadWholeWatts).
// Setup hard-asserts the two agree bit for bit over 64 ticks; the timed
// loop must not allocate. "fallback" is the certified arm's share of
// readings computed exactly.
void BM_NoiseSpan(benchmark::State& state) {
  const size_t servers = static_cast<size_t>(state.range(0));
  const bool certified = state.range(1) != 0;
  constexpr double kSigma = 1.0;
  constexpr uint64_t kNoiseSeed = 0x9E3779B97F4A7C15ULL;
  Rng rng(515);
  std::vector<double> truth(servers);
  for (double& watts : truth) {
    watts = rng.Uniform(150.0, 320.0);
  }
  std::vector<double> exact(servers, 0.0);
  std::vector<double> fast(servers, 0.0);
  auto read_exact = [&](uint64_t base) {
    for (size_t s = 0; s < servers; s += 2) {
      const auto pair = counter_rng::StandardNormalPair(
          counter_rng::StreamKey(base, static_cast<uint64_t>(s >> 1)));
      exact[s] = std::max(std::round(truth[s] + kSigma * pair.z0), 0.0);
      if (s + 1 < servers) {
        exact[s + 1] =
            std::max(std::round(truth[s + 1] + kSigma * pair.z1), 0.0);
      }
    }
  };
  for (uint64_t tick = 0; tick < 64; ++tick) {
    const uint64_t base = counter_rng::TickBase(kNoiseSeed, tick);
    read_exact(base);
    PowerMonitor::ReadWholeWatts(truth, kSigma, base, fast);
    for (size_t s = 0; s < servers; ++s) {
      AMPERE_CHECK(exact[s] == fast[s])
          << "certified reading diverged at server " << s << " tick " << tick;
    }
  }
  uint64_t tick = 0;
  size_t fallbacks = 0;
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    const uint64_t base = counter_rng::TickBase(kNoiseSeed, tick++);
    if (certified) {
      fallbacks += PowerMonitor::ReadWholeWatts(truth, kSigma, base, fast);
      benchmark::DoNotOptimize(fast.data());
    } else {
      read_exact(base);
      benchmark::DoNotOptimize(exact.data());
    }
    benchmark::ClobberMemory();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "whole-watt readings allocated in steady state";
  const double readings =
      static_cast<double>(state.iterations()) * static_cast<double>(servers);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(servers));
  state.counters["fallback"] =
      certified ? static_cast<double>(fallbacks) / readings : 0.0;
  state.SetLabel(certified ? "certified" : "exact_pairs");
}
BENCHMARK(BM_NoiseSpan)
    ->Args({420, 0})
    ->Args({420, 1})
    ->Args({6720, 0})
    ->Args({6720, 1});

// Row resummation: one row's power span (420 servers) summed left to right
// by SumSequential, the one reduction order every aggregate uses.
void BM_ResummateRowSpan(benchmark::State& state) {
  constexpr size_t kServers = 420;
  std::vector<double> watts(kServers);
  for (size_t i = 0; i < kServers; ++i) {
    watts[i] = 162.5 + 0.25 * static_cast<double>(i % 41);
  }
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    double sum = span_kernels::SumSequential(watts.data(), kServers);
    benchmark::DoNotOptimize(sum);
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "span reduction allocated in steady state";
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kServers));
}
BENCHMARK(BM_ResummateRowSpan);

void BM_SchedulerPlacement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(1);
  int32_t id = 0;
  for (auto _ : state) {
    JobSpec job;
    job.id = JobId(id++);
    job.demand = Resources{1.0, 2.0};
    job.duration = SimTime::Minutes(9);
    rig.scheduler.Submit(job);
    if (id % 2000 == 0) {
      // Drain so the cluster does not clog.
      state.PauseTiming();
      rig.sim.RunUntil(rig.sim.now() + SimTime::Minutes(10));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPlacement);

// --- Placement on a saturated DC ------------------------------------------
//
// Each timed iteration is one drain pass over a backed-up queue, the work a
// task completion does on a starved DC: Unfreeze on a server whose
// candidacy does not change re-drains the pending queue until
// drain_failure_limit (2) placements have failed. Nothing is placed, so the
// DC stays saturated; each case hard-asserts that the passes place nothing
// and allocate nothing.

// Queues `count` jobs of `demand` behind a DC on which none of them fits.
void QueueUnplaceableJobs(Rig& rig, Resources demand, int count) {
  for (int i = 0; i < count; ++i) {
    JobSpec job;
    job.id = JobId(1'000'000 + i);
    job.demand = demand;
    job.duration = SimTime::Minutes(9);
    rig.scheduler.Submit(job);
  }
  AMPERE_CHECK(rig.scheduler.queue_length() == static_cast<size_t>(count))
      << "a queued job was placed; the DC is not saturated";
}

void TimeDrainPasses(benchmark::State& state, Rig& rig, bool refreeze) {
  const ServerId poke(0);
  auto pass = [&] {
    rig.scheduler.Unfreeze(poke);
    if (refreeze) {
      rig.scheduler.Freeze(poke);
    }
  };
  for (int i = 0; i < 4; ++i) {
    pass();  // Warmup.
  }
  const uint64_t placed_before = rig.scheduler.jobs_placed();
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    pass();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "saturated drain pass allocated";
  AMPERE_CHECK(rig.scheduler.jobs_placed() == placed_before)
      << "saturated drain pass placed a job";
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SchedulerConfig{}
                                                   .drain_failure_limit));
}

// Arg(0): every server frozen (server 0 also reserved, so unfreezing it
// adds no candidate). Arg(1): every server full. Either way the candidate
// list's per-axis maxima rule every job out: after the first failure the
// scheduler is in saturation mode and each attempt only skips its draws.
void BM_PlacementNoFitSaturated(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(1);
  const bool all_frozen = state.range(0) == 0;
  for (int32_t s = 0; s < rig.dc.num_servers(); ++s) {
    if (all_frozen) {
      rig.scheduler.Freeze(ServerId(s));
    } else {
      rig.dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{16.0, 8.0},
                                             SimTime::Hours(1000)});
    }
  }
  if (all_frozen) {
    rig.dc.SetReserved(ServerId(0), true);
  }
  QueueUnplaceableJobs(rig, Resources{1.0, 2.0}, 64);
  TimeDrainPasses(state, rig, /*refreeze=*/all_frozen);
  state.SetLabel(all_frozen ? "all_frozen" : "all_full");
}
BENCHMARK(BM_PlacementNoFitSaturated)->Arg(0)->Arg(1);

// The case the per-axis maxima cannot rule out: even servers have CPU but
// no memory free, odd servers memory but no CPU, so a job needing both
// fits the maxima and no server. Every failure is 16 probes plus a
// first-fit scan over the whole dense free-capacity array.
void BM_PlacementScanDense(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(1);
  for (int32_t s = 0; s < rig.dc.num_servers(); ++s) {
    const Resources demand =
        s % 2 == 0 ? Resources{1.0, 64.0} : Resources{16.0, 1.0};
    rig.dc.PlaceTask(ServerId(s),
                     TaskSpec{JobId(s), demand, SimTime::Hours(1000)});
  }
  const Resources job{2.0, 4.0};
  AMPERE_CHECK(rig.dc.MaxSchedulableFree().Fits(job))
      << "the per-axis maxima must admit the job, or nothing is scanned";
  QueueUnplaceableJobs(rig, job, 64);
  TimeDrainPasses(state, rig, /*refreeze=*/false);
  state.SetLabel("full_scan_per_failure");
}
BENCHMARK(BM_PlacementScanDense);

// A 420-server DC in the state the controller's freeze leaves a hot DC in:
// three of every four servers frozen, the rest full of running jobs, and a
// backlog of 64 queued jobs of the three default demand profiles. Each
// iteration fires one completion, whose drain pass then tries the backlog
// until two placements fail, and tops the backlog back up to 64 with
// fresh submissions (each one a placement attempt of its own). The attempts
// mix every outcome of a saturated DC: demands the per-axis maxima rule out
// (draws only), probes that all miss before a first-fit scan, and probes
// that hit. The case hard-asserts that completions and their drains
// allocate nothing; only the top-up's queue growth may.
void BM_PlacementSaturatedDrain(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(1);
  // Every candidate first holds the most tasks it ever can (16 one-core
  // jobs), so its task table, the task pool and the event queue reach
  // their peak size before the timed region.
  for (int32_t s = 0; s < rig.dc.num_servers(); ++s) {
    if (s % 4 != 0) {
      rig.scheduler.Freeze(ServerId(s));
      continue;
    }
    for (int k = 0; k < 16; ++k) {
      AMPERE_CHECK(rig.dc.PlaceTask(
          ServerId(s), TaskSpec{JobId(-1 - k), Resources{1.0, 2.0},
                                SimTime::Seconds(1 + s % 60)}));
    }
  }
  constexpr Resources kDemands[] = {{1.0, 2.0}, {2.0, 4.0}, {4.0, 8.0}};
  constexpr size_t kBacklog = 64;
  int32_t next_job = 0;
  auto top_up = [&] {
    while (rig.scheduler.queue_length() < kBacklog) {
      JobSpec job;
      job.id = JobId(next_job);
      job.demand = kDemands[next_job % 3];
      job.duration = SimTime::Seconds(60 + 37 * (next_job % 17));
      ++next_job;
      rig.scheduler.Submit(job);
    }
  };
  uint64_t drain_allocs = 0;
  auto cycle = [&] {
    const uint64_t allocs_before = AllocCount();
    AMPERE_CHECK(rig.sim.Step()) << "no running job left to complete";
    drain_allocs += AllocCount() - allocs_before;
    top_up();
  };
  top_up();
  for (int i = 0; i < 5'000; ++i) {
    cycle();  // Warmup: the fillers complete, the backlog takes over.
  }
  drain_allocs = 0;
  const uint64_t placed_before = rig.scheduler.jobs_placed();
  const uint64_t submitted_before = rig.scheduler.jobs_submitted();
  for (auto _ : state) {
    cycle();
  }
  AMPERE_CHECK(drain_allocs == 0)
      << "completions and their drain passes allocated " << drain_allocs
      << " times";
  const auto per_iteration = [&state](uint64_t count) {
    return benchmark::Counter(static_cast<double>(count) /
                              static_cast<double>(state.iterations()));
  };
  state.counters["placed"] =
      per_iteration(rig.scheduler.jobs_placed() - placed_before);
  state.counters["submitted"] =
      per_iteration(rig.scheduler.jobs_submitted() - submitted_before);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("complete_drain_zero_alloc");
}
BENCHMARK(BM_PlacementSaturatedDrain);

// Row-ordered placement (Arg(0) kConcentrateRows, Arg(1)
// kPowerAwareSpread) on a four-row DC holding 2,000 running two-core jobs.
// Each iteration fires the earliest completion and submits a fresh job,
// which the scheduler ranks the rows for and places at once, so the running
// count stays constant. The case hard-asserts that the steady state
// allocates nothing: the row ranking reuses one buffer, and at most eight
// two-core jobs fit a 16-core server, so no task table spills.
void BM_PlacementRowOrdered(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  constexpr int kRunningJobs = 2'000;
  Simulation sim;
  DataCenter dc(Rig::Topology(4), &sim);
  SchedulerConfig config;
  config.policy = state.range(0) == 0 ? PlacementPolicy::kConcentrateRows
                                      : PlacementPolicy::kPowerAwareSpread;
  Scheduler scheduler(&dc, config, Rng(3));
  Rng rng(11);
  int32_t next_job = 0;
  auto submit = [&] {
    JobSpec job;
    job.id = JobId(next_job++);
    job.demand = Resources{2.0, 4.0};
    job.duration = SimTime::Micros(rng.UniformInt(60'000'000, 1'200'000'000));
    scheduler.Submit(job);
  };
  for (int i = 0; i < kRunningJobs; ++i) {
    submit();
  }
  auto cycle = [&] {
    AMPERE_CHECK(sim.Step()) << "no running job left to complete";
    submit();
  };
  for (int i = 0; i < kRunningJobs; ++i) {
    cycle();  // Warmup: every record and queue entry recycled once.
  }
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    cycle();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "row-ordered placement allocated in steady state";
  AMPERE_CHECK(scheduler.queue_length() == 0 &&
               sim.pending_events() == static_cast<size_t>(kRunningJobs))
      << "a job was not placed on submit";
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "concentrate_zero_alloc"
                                     : "spread_zero_alloc");
}
BENCHMARK(BM_PlacementRowOrdered)->Arg(0)->Arg(1);

// --- Task lifecycle at fleet depth -----------------------------------------
//
// A 6,720-server DC (16 rows, the hyperscale tier) holding ~30 k running
// tasks, the depth the hyperscale closed loop runs at. Each iteration is one
// Step that fires the earliest completion plus the placement of a fresh
// task on the server it freed, so the running count, every server's task
// table and the queue depth stay constant: a steady state in which the task
// storage and the event queue must recycle. The case hard-asserts a zero
// allocation delta over the timed region.
void BM_TaskChurnHyperscaleDepth(benchmark::State& state) {
  constexpr int kRunningTasks = 30'000;
  Simulation sim;
  DataCenter dc(Rig::Topology(16), &sim);
  Rng rng(7);
  int32_t next_job = 0;
  ServerId freed;
  dc.SetTaskCompletionListener([&freed](ServerId id, JobId) { freed = id; });
  auto place = [&](ServerId id) {
    const TaskSpec spec{JobId(next_job++), Resources{2.0, 4.0},
                        SimTime::Micros(rng.UniformInt(60'000'000,
                                                       1'020'000'000))};
    AMPERE_CHECK(dc.PlaceTask(id, spec)) << "churn placement did not fit";
  };
  for (int i = 0; i < kRunningTasks; ++i) {
    place(ServerId(i % dc.num_servers()));
  }
  auto cycle = [&] {
    sim.Step();
    place(freed);
  };
  for (int i = 0; i < kRunningTasks; ++i) {
    cycle();  // Warmup: every record and queue entry recycled once.
  }
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    cycle();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "task churn allocated in steady state";
  AMPERE_CHECK(sim.pending_events() == static_cast<size_t>(kRunningTasks))
      << "churn changed the running-task count";
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("place_step_complete_zero_alloc");
}
BENCHMARK(BM_TaskChurnHyperscaleDepth);

// --- One arrival minute ----------------------------------------------------
//
// One BatchWorkload at the arrival rate that drives a `rows`-row DC to 0.98
// normalized power: ~2,340 jobs a minute on the 16-row (6,720-server) tier,
// ~150 on one 420-server row. Each iteration is one simulated minute: the
// GenerateMinute step, then one step per arrival it queued, each submitting
// to a counting sink. Bursts and the AR modulation are off so no minute
// outgrows the buffers the warm hour around the diurnal peak sized; the
// case hard-asserts a zero allocation delta over the timed region.
class CountingSink final : public JobSink {
 public:
  void Submit(const JobSpec&) override { ++submitted; }
  uint64_t submitted = 0;
};

void ArrivalMinute(benchmark::State& state, int rows) {
  Simulation sim;
  CountingSink sink;
  JobIdAllocator ids;
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      Rig::Topology(rows), params, /*target_normalized_power=*/0.98,
      /*over_provision_ratio=*/0.25);
  params.arrivals.ar_sigma = 0.0;
  params.arrivals.burst_prob = 0.0;
  BatchWorkload workload(params, &sim, &sink, &ids, Rng(11));
  workload.Start(SimTime::Hours(13.5));  // Warm through the 14:00 peak.
  auto minute = [&] {
    const uint64_t before = workload.jobs_generated();
    sim.Step();  // GenerateMinute.
    for (uint64_t n = workload.jobs_generated() - before; n > 0; --n) {
      sim.Step();
    }
  };
  for (int i = 0; i < 60; ++i) {
    minute();
  }
  const uint64_t jobs_before = workload.jobs_generated();
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    minute();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "arrival minute allocated in steady state";
  AMPERE_CHECK(sink.submitted == workload.jobs_generated())
      << "a generated arrival did not reach the sink";
  const uint64_t jobs = workload.jobs_generated() - jobs_before;
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
  state.counters["jobs_per_minute"] =
      static_cast<double>(jobs) / static_cast<double>(state.iterations());
  state.SetLabel("generate_and_fire_zero_alloc");
}

void BM_ArrivalMinuteHyperscale(benchmark::State& state) {
  ArrivalMinute(state, 16);
}
BENCHMARK(BM_ArrivalMinuteHyperscale);

void BM_ArrivalMinuteRow(benchmark::State& state) { ArrivalMinute(state, 1); }
BENCHMARK(BM_ArrivalMinuteRow);

// Sorting one minute's arrival offsets: std::sort (Arg 0) against
// RadixSortTimes (Arg 1), at the row's ~150 and the 6,720-server tier's
// ~2,300 arrivals a minute. Each iteration copies the next of 64 unsorted
// minutes into the buffer first, so both arms pay the copy, and the branch
// predictor cannot learn one input's comparisons.
void BM_SortArrivalOffsets(benchmark::State& state) {
  const bool radix = state.range(0) == 1;
  constexpr size_t kMinutes = 64;
  Rng rng(13);
  std::vector<std::vector<SimTime>> minutes(kMinutes);
  for (std::vector<SimTime>& unsorted : minutes) {
    for (int64_t i = 0; i < state.range(1); ++i) {
      unsorted.push_back(SimTime::Seconds(rng.Uniform(0.0, 60.0)));
    }
  }
  std::vector<SimTime> times;
  std::vector<SimTime> scratch;
  size_t next = 0;
  for (auto _ : state) {
    const std::vector<SimTime>& unsorted = minutes[next++ % kMinutes];
    times.assign(unsorted.begin(), unsorted.end());
    if (radix) {
      RadixSortTimes(&times, &scratch);
    } else {
      std::sort(times.begin(), times.end());
    }
    benchmark::DoNotOptimize(times.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(radix ? "radix" : "std_sort");
}
BENCHMARK(BM_SortArrivalOffsets)->ArgsProduct({{0, 1}, {150, 2300}});

// One 420-server row under a loaded fleet, with a monitor group registered
// and a controller ready to tick — shared by the tick-latency and the
// obs-overhead benches so both measure the identical decision path.
struct ControllerTickRig {
  Rig rig{1};
  TimeSeriesDb db2;
  PowerMonitor monitor;
  std::unique_ptr<AmpereController> controller;
  int64_t minute = 2;

  ControllerTickRig()
      : monitor(&rig.dc, &db2, PowerMonitorConfig{}, Rng(3)) {
    std::vector<ServerId> all;
    for (int32_t s = 0; s < rig.dc.num_servers(); ++s) {
      all.push_back(ServerId(s));
      rig.dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{8.0, 8.0},
                                             SimTime::Hours(1000)});
    }
    monitor.RegisterGroup("row", all);
    monitor.SampleOnce(SimTime::Minutes(1));
    AmpereControllerConfig config;
    config.effect = FreezeEffectModel(0.05);
    config.et = EtEstimator::Constant(0.02);
    // The one sample must stay fresh: with the default limits every tick
    // from the seventh minute on would be a blackout skip.
    config.stale_after = SimTime::Hours(1e6);
    config.blackout_after = SimTime::Hours(1e6);
    controller = std::make_unique<AmpereController>(&rig.scheduler, &monitor,
                                                    config);
    controller->AddDomain({"row", all, 420 * 250.0 / 1.25});
  }

  void Tick() {
    controller->Tick(SimTime::Minutes(static_cast<double>(minute++)));
  }
};

void BM_ControllerTick420Servers(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  ControllerTickRig rig;
  for (auto _ : state) {
    rig.Tick();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerTick420Servers);

// --- Controller tick at the hyperscale domain size -------------------------
//
// One 3,360-server control domain, the experiment half of the 6,720-server
// tier. Loads come from four task sizes, so the quantized readings tie in
// large groups and ids break the ties. The budget holds the freezing ratio
// near 30 % and power does not change between ticks (the staleness limits
// are lifted so the one sample stays fresh), so after the first tick the
// frozen set is stable: each iteration is the selection and reconciliation
// of a tick that changes nothing. Once the journal ring has wrapped, the
// case hard-asserts a zero allocation delta and an unchanged frozen set
// over the timed region.
void BM_ControllerTickHyperscale(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(8);
  std::vector<ServerId> all;
  Rng rng(5);
  for (int32_t s = 0; s < rig.dc.num_servers(); ++s) {
    all.push_back(ServerId(s));
    const double cores = 4.0 * static_cast<double>(rng.UniformInt(1, 4));
    rig.dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{cores, cores},
                                           SimTime::Hours(1000)});
  }
  rig.monitor.RegisterGroup("experiment", all);
  rig.monitor.SampleOnce(SimTime::Minutes(1));
  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.05);
  config.et = EtEstimator::Constant(0.02);
  config.journal_capacity = 256;
  config.stale_after = SimTime::Hours(1e6);
  config.blackout_after = SimTime::Hours(1e6);
  AmpereController controller(&rig.scheduler, &rig.monitor, config);
  // p = 1 - E_t + kr * 0.3, so u = 0.3.
  controller.AddDomain({"experiment", all,
                        rig.monitor.LatestGroupWatts("experiment") / 0.995});
  int64_t minute = 2;
  auto tick = [&] {
    controller.Tick(SimTime::Minutes(static_cast<double>(minute++)));
  };
  for (int i = 0; i < 512; ++i) {
    tick();  // Warmup: the journal ring wraps; gauges are registered.
  }
  const uint64_t freeze_ops = controller.freeze_ops();
  const uint64_t unfreeze_ops = controller.unfreeze_ops();
  AMPERE_CHECK(controller.frozen_count(0) > 0) << "nothing froze";
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    tick();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "stable controller tick allocated";
  AMPERE_CHECK(controller.freeze_ops() == freeze_ops &&
               controller.unfreeze_ops() == unfreeze_ops)
      << "the frozen set changed on a stable tick";
  state.SetItemsProcessed(state.iterations());
  state.counters["frozen"] =
      static_cast<double>(controller.frozen_count(0));
  state.SetLabel("stable_tick_zero_alloc");
}
BENCHMARK(BM_ControllerTickHyperscale);

// Flight-recorder append in steady state. The ring is preallocated at
// construction and a slot write is a fixed-size POD copy, so after a short
// warmup the case hard-asserts a ZERO allocation delta across 4096 appends
// (eviction included — the ring is 1024 slots, so the assert loop wraps it
// four times). A regression that puts an allocation on the append path
// fails the run loudly instead of shifting a number.
void BM_FlightRecorderAppend(benchmark::State& state) {
  obs::FlightRecorder recorder(1024);
  int64_t t = 0;
  auto append = [&] {
    recorder.Append(SimTime::Micros(t++), obs::TimelineEventType::kTickBegin,
                    1.0, 2.0, 3);
  };
  for (int i = 0; i < 64; ++i) {
    append();  // Warmup: fault the ring's pages.
  }
  const uint64_t allocs_before = AllocCount();
  for (int i = 0; i < 4096; ++i) {
    append();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "flight-recorder append allocated in steady state";
  for (auto _ : state) {
    append();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("steady_state_zero_alloc");
}
BENCHMARK(BM_FlightRecorderAppend);

// The AMPERE_TIMELINE dispatch cost by mode: recording (Arg 2) pays the
// ring write; no recorder in scope (Arg 1) is the usual production state —
// one thread_local load and a branch, effectively zero next to any real
// work.
void BM_TimelineMacroDispatch(benchmark::State& state) {
  const bool recording = state.range(0) == 2;
  obs::FlightRecorder recorder(1024);
  std::optional<obs::ScopedFlightRecorder> scoped;
  if (recording) scoped.emplace(&recorder);
  int64_t t = 0;
  for (auto _ : state) {
    AMPERE_TIMELINE(SimTime::Micros(t++),
                    obs::TimelineEventType::kTickBegin, 1.0, 2.0, 3);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(recording ? "recording" : "no_recorder");
}
BENCHMARK(BM_TimelineMacroDispatch)->Arg(2)->Arg(1);

// recorder_overhead: the identical controller decision path with a flight
// recorder in scope (Arg 1) vs without one (Arg 0). Both arms keep metrics
// instrumentation on, so the delta isolates what RECORDING timeline events
// adds on top — a tick_begin/tick_end pair plus one event per freeze RPC.
// Acceptance wants the recording arm within 5 % of the recorder-less arm.
void BM_RecorderOverheadControllerTick(benchmark::State& state) {
  const bool recording = state.range(0) == 1;
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  obs::FlightRecorder recorder(16384);
  std::optional<obs::ScopedFlightRecorder> scoped;
  if (recording) scoped.emplace(&recorder);
  ControllerTickRig rig;
  for (auto _ : state) {
    rig.Tick();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(recording ? "recording" : "no_recorder");
}
BENCHMARK(BM_RecorderOverheadControllerTick)->Arg(1)->Arg(0);

// The raw cost of the obs primitives themselves, for when the per-path
// numbers above need explaining.
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  for (auto _ : state) {
    AMPERE_COUNTER_ADD("bench.counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  double value = 0.0;
  for (auto _ : state) {
    AMPERE_HISTOGRAM_OBSERVE("bench.hist", value);
    value += 0.1;
    if (value > 1000.0) value = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpan(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  for (auto _ : state) {
    AMPERE_SPAN("bench.span");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpan);

void BM_ObsSnapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  for (int i = 0; i < 16; ++i) {
    obs::CounterAdd("bench.counter." + std::to_string(i), 1);
    obs::GaugeSet("bench.gauge." + std::to_string(i),
                  static_cast<double>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSnapshot);

// fault_path_overhead: the telemetry sample pass — the hottest injector-
// guarded path (one dropout/noise decision per server per minute) — with
// (Arg 1) a quiescent injector attached (all probabilities zero, empty
// window schedule: every hook short-circuits without advancing an RNG) vs
// (Arg 0) no injector at all (every hook is one nullptr test). Acceptance
// wants the quiescent-attached arm within 5 % of the detached arm: runs
// that don't opt into chaos must not pay for the capability.
void BM_FaultPathOverheadMonitorSample(benchmark::State& state) {
  const bool attached = state.range(0) == 1;
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(1);
  faults::FaultPlanConfig quiescent;  // any() == false.
  quiescent.rpc_latency_mean = SimTime();
  faults::FaultPlan plan =
      faults::FaultPlan::Generate(quiescent, SimTime::Hours(26));
  faults::FaultInjector injector(plan);
  if (attached) {
    rig.monitor.AttachFaultInjector(&injector);
  }
  int64_t minute = 1;
  for (auto _ : state) {
    rig.monitor.SampleOnce(SimTime::Minutes(static_cast<double>(minute++)));
  }
  state.SetItemsProcessed(state.iterations() * rig.dc.num_servers());
  state.SetLabel(attached ? "quiescent_injector" : "no_injector");
}
BENCHMARK(BM_FaultPathOverheadMonitorSample)->Arg(0)->Arg(1);

// The same question for an injector whose faults DO fire at the moderate
// preset's rates — the price of actually being under chaos, for context.
void BM_FaultPathActiveMonitorSample(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  Rig rig(1);
  faults::FaultPlanConfig active;
  active.sample_dropout_prob = 0.05;
  active.noise_spike_prob = 0.01;
  active.noise_spike_sigma_watts = 15.0;
  active.sensor_bias_watts = 1.0;
  faults::FaultPlan plan =
      faults::FaultPlan::Generate(active, SimTime::Hours(26));
  faults::FaultInjector injector(plan);
  rig.monitor.AttachFaultInjector(&injector);
  int64_t minute = 1;
  for (auto _ : state) {
    rig.monitor.SampleOnce(SimTime::Minutes(static_cast<double>(minute++)));
  }
  state.SetItemsProcessed(state.iterations() * rig.dc.num_servers());
}
BENCHMARK(BM_FaultPathActiveMonitorSample);

// Schedule + fire with the model's typical closure shape: a pointer plus two
// ids, 24 bytes, past std::function's 16-byte inline buffer. After a
// 1,024-event warm-up that grows the slot pool and the queue, the timed
// loop hard-asserts a zero allocation delta.
void BM_EventCoreScheduleFire(benchmark::State& state) {
  Simulation sim;
  struct Receiver {
    uint64_t hits = 0;
    void OnFire(int32_t, int64_t) { ++hits; }
  } receiver;
  uint64_t n = 0;
  auto schedule_fire = [&] {
    sim.ScheduleAfter(SimTime::Micros(1), [&receiver, i = n, j = int64_t(n)] {
      receiver.OnFire(static_cast<int32_t>(i & 0xff), j);
    });
    sim.Step();
    ++n;
  };
  for (int i = 0; i < 1024; ++i) {
    schedule_fire();
  }
  const uint64_t allocs_before = AllocCount();
  for (auto _ : state) {
    schedule_fire();
  }
  AMPERE_CHECK(AllocCount() == allocs_before)
      << "event schedule+fire allocated in steady state";
  benchmark::DoNotOptimize(receiver.hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCoreScheduleFire);

// Schedule + O(1) cancel through the pooled slots. Cancelled entries linger
// in the queue until popped, so the loop drains periodically (untimed) to
// keep the heap at steady size; the timed region is pure schedule/cancel.
void BM_EventCoreScheduleCancel(benchmark::State& state) {
  Simulation sim;
  int n = 0;
  for (auto _ : state) {
    auto handle = sim.ScheduleAfter(SimTime::Micros(1), [] {});
    handle.Cancel();
    if (++n % 4096 == 0) {
      state.PauseTiming();
      sim.Step();  // Drains every stale entry; returns false.
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCoreScheduleCancel);

// Reference arm for the event core: the per-event allocation pattern the
// pooled slots replaced — one shared_ptr control block for the cancel state
// plus one std::function whose typical 24-byte closure overflows libstdc++'s
// 16-byte inline buffer. The old queue is not reimplemented; the delta
// against BM_EventCoreScheduleFire is the allocator traffic the slab/free
// list removed (everything else about the two loops is equivalent work).
void BM_EventCoreLegacyAllocPattern(benchmark::State& state) {
  struct CancelState {
    bool cancelled = false;
  };
  uint64_t hits = 0;
  for (auto _ : state) {
    auto cancel_state = std::make_shared<CancelState>();
    const uint64_t a = hits;
    const int64_t b = static_cast<int64_t>(hits);
    std::function<void()> callback = [&hits, a, b] {
      hits += (a ^ static_cast<uint64_t>(b)) & 1u;
    };
    if (!cancel_state->cancelled) {
      callback();
    }
    benchmark::DoNotOptimize(cancel_state);
    benchmark::DoNotOptimize(callback);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCoreLegacyAllocPattern);

// Row-power read: the incrementally maintained aggregate (one load) vs the
// full loop over the row's servers that it replaced as the readers' path.
// Both return the same watts (the loop IS the resummation the drift-snap
// periodically applies); the question is only what a read costs at 420
// servers per row.
void BM_RowPowerRead(benchmark::State& state) {
  const bool incremental = state.range(0) == 1;
  Simulation sim;
  DataCenter dc(Rig::Topology(1), &sim);
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    dc.PlaceTask(ServerId(s), TaskSpec{JobId(s), Resources{8.0, 8.0},
                                       SimTime::Hours(1000)});
  }
  for (auto _ : state) {
    const double watts = incremental
                             ? dc.row_power_watts(RowId(0))
                             : dc.PowerOfServers(dc.servers_in_row(RowId(0)));
    benchmark::DoNotOptimize(watts);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(incremental ? "incremental_O1" : "loop_over_420_servers");
}
BENCHMARK(BM_RowPowerRead)->Arg(1)->Arg(0);

// String-name append: the convenience shim. Pays one transparent-hash map
// probe per call before landing in the same width-1 frame as the interned
// path below.
void BM_TimeSeriesAppend(benchmark::State& state) {
  TimeSeriesDb db;
  int64_t t = 0;
  for (auto _ : state) {
    db.Append("bench", SimTime::Micros(t++), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesAppend);

// Interned-handle append: a one-cell row of the series' width-1 frame (one
// order check, one stamp, one value) — no hashing, no name formatting.
void BM_TimeSeriesAppendInterned(benchmark::State& state) {
  TimeSeriesDb db;
  const SeriesId id = db.Intern("bench");
  int64_t t = 0;
  for (auto _ : state) {
    db.Append(id, SimTime::Micros(t++), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesAppendInterned);

// One campus minute of telemetry as one frame row: 1,736 series (4 DCs x
// 420 servers, 40 racks, 4 rows, 4 totals, 8 groups) appended with one
// order check and one contiguous write, at each of the three cell widths:
// whole watts below 65,536 stay in the frame's 16-bit block, larger whole
// watts widen it to float on the first row, and rows with a fraction that
// float cannot hold widen it straight to double on the first row. Before
// the timed loop each case hard-asserts the allocation contract across 64
// rows after ReserveRows: at most one allocation, on the row that widens
// the frame, and none otherwise — so a regression fails the run loudly
// instead of just shifting a number.
void AppendFrameRows(benchmark::State& state, size_t cell_bytes) {
  constexpr size_t kWidth = 1736;
  constexpr size_t kRows = size_t{1} << 12;
  std::vector<double> row(kWidth);
  for (size_t c = 0; c < kWidth; ++c) {
    const double whole = 250.0 + static_cast<double>(c);
    row[c] = cell_bytes == 2 ? whole
             : cell_bytes == 4 ? 70000.0 + whole
                               : whole + 0.1;
  }
  std::unique_ptr<TimeSeriesDb> db;
  FrameId frame;
  size_t rows = 0;
  auto make_db = [&] {
    db = std::make_unique<TimeSeriesDb>();
    std::vector<SeriesId> members;
    members.reserve(kWidth);
    for (size_t c = 0; c < kWidth; ++c) {
      members.push_back(db->Intern("series/" + std::to_string(c)));
    }
    frame = db->RegisterFrame(members);
    db->ReserveRows(frame, kRows);
    rows = 0;
  };
  make_db();
  auto append = [&] {
    db->AppendFrame(frame, SimTime::Minutes(static_cast<double>(rows++)),
                    row);
  };
  const uint64_t allocs_before = AllocCount();
  append();
  AMPERE_CHECK(AllocCount() - allocs_before <= (cell_bytes > 2 ? 1u : 0u))
      << "first frame row allocated beyond its one widening";
  const uint64_t allocs_after_first = AllocCount();
  for (int i = 1; i < 64; ++i) {
    append();
  }
  AMPERE_CHECK(AllocCount() == allocs_after_first)
      << "frame append allocated after ReserveRows";
  AMPERE_CHECK(db->HotValueBytes() == 64 * kWidth * cell_bytes)
      << "frame block not at the expected cell width";
  for (auto _ : state) {
    if (rows >= kRows) {
      state.PauseTiming();
      make_db();
      state.ResumeTiming();
    }
    append();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kWidth));
}

void BM_TimeSeriesAppendFrame(benchmark::State& state) {
  AppendFrameRows(state, sizeof(uint16_t));
}
BENCHMARK(BM_TimeSeriesAppendFrame);

void BM_TimeSeriesAppendFrameFloat(benchmark::State& state) {
  AppendFrameRows(state, sizeof(float));
}
BENCHMARK(BM_TimeSeriesAppendFrameFloat);

void BM_TimeSeriesAppendFrameWide(benchmark::State& state) {
  AppendFrameRows(state, sizeof(double));
}
BENCHMARK(BM_TimeSeriesAppendFrameWide);

// The map probe in isolation (Find by name), for decomposing the string-
// minus-interned delta above.
void BM_TimeSeriesFindByName(benchmark::State& state) {
  TimeSeriesDb db;
  db.Append("bench", SimTime::Micros(0), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Find("bench"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesFindByName);

}  // namespace
}  // namespace ampere

BENCHMARK_MAIN();
