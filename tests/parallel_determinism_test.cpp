// Determinism contract for the intra-run parallel layer.
//
// The PR that introduced the sharded sample pass and the parallel power
// resummation promises: results are a pure function of the config, never of
// the job count. These tests pin that contract at three levels:
//
//   1. ParallelFor partitioning — shard boundaries are a pure function of
//      (range, grain, lane count); every index is visited exactly once, in
//      disjoint ascending shards; degenerate ranges take the serial path.
//   2. Counter-based noise streams — a variate is a pure function of
//      (seed, stream, tick); the two-stage key derivation (hoisted TickBase
//      + per-stream StreamKey) matches the one-shot Key; exact pinned
//      values catch silent mixer changes.
//   3. The jobs matrix — a full closed-loop experiment run at jobs in
//      {1, 2, 8} produces byte-identical artifacts: the harness ResultTable
//      CSV, the controller DecisionJournal CSV, and the entire TimeSeriesDb
//      (per-server series included) serialized to CSV.
//
// jobs=8 on a small machine oversubscribes — that is intentional: heavy
// lane interleaving is exactly when a determinism bug would show.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/common/span_kernels.h"
#include "src/common/thread_pool.h"
#include "src/core/campus_experiment.h"
#include "src/core/controller.h"
#include "src/core/experiment.h"
#include "src/telemetry/cold_store.h"
#include "src/harness/grid.h"
#include "src/harness/runner.h"
#include "src/telemetry/csv_export.h"
#include "src/telemetry/power_monitor.h"
#include "src/telemetry/timeseries_db.h"
#include "tests/scratch_dir.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20210806;

// --- 1. ParallelFor partitioning ----------------------------------------

// Runs ParallelFor over [begin, end) on `pool`, recording every shard range
// and stamping a per-index visit counter. Returns the shard ranges sorted
// by begin.
std::vector<std::pair<size_t, size_t>> RunRegion(ThreadPool* pool,
                                                 size_t begin, size_t end,
                                                 size_t grain,
                                                 std::vector<int>* visits) {
  std::vector<std::atomic<int>> counters(end > begin ? end - begin : 0);
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> shards;
  ParallelFor(pool, begin, end, grain, [&](size_t b, size_t e) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      shards.emplace_back(b, e);
    }
    for (size_t i = b; i < e; ++i) {
      counters[i - begin].fetch_add(1, std::memory_order_relaxed);
    }
  });
  if (visits != nullptr) {
    visits->clear();
    for (const auto& c : counters) {
      visits->push_back(c.load(std::memory_order_relaxed));
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

void ExpectExactCover(const std::vector<std::pair<size_t, size_t>>& shards,
                      size_t begin, size_t end,
                      const std::vector<int>& visits) {
  // Disjoint ascending shards covering [begin, end).
  size_t cursor = begin;
  for (const auto& [b, e] : shards) {
    EXPECT_EQ(b, cursor) << "gap or overlap at shard start";
    EXPECT_LT(b, e) << "empty shard dispatched";
    cursor = e;
  }
  EXPECT_EQ(cursor, end);
  // Every index exactly once.
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << begin + i << " visited "
                            << visits[i] << " times";
  }
}

TEST(ParallelForPartitionTest, EmptyRangeInvokesNothing) {
  ThreadPool pool(3);
  std::vector<int> visits;
  auto shards = RunRegion(&pool, 5, 5, 1, &visits);
  EXPECT_TRUE(shards.empty());
  EXPECT_TRUE(visits.empty());
}

TEST(ParallelForPartitionTest, NullPoolTakesSerialPathAsOneShard) {
  std::vector<int> visits;
  auto shards = RunRegion(nullptr, 3, 103, 8, &visits);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], (std::pair<size_t, size_t>{3, 103}));
  ExpectExactCover(shards, 3, 103, visits);
}

TEST(ParallelForPartitionTest, RangeAtOrUnderGrainStaysSerial) {
  ThreadPool pool(3);
  std::vector<int> visits;
  auto shards = RunRegion(&pool, 0, 16, 16, &visits);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], (std::pair<size_t, size_t>{0, 16}));
  ExpectExactCover(shards, 0, 16, visits);
}

TEST(ParallelForPartitionTest, NonDivisibleRangeCoversEveryIndexOnce) {
  ThreadPool pool(3);  // 4 lanes with the caller.
  for (size_t n : {2u, 3u, 5u, 10u, 101u, 1003u}) {
    std::vector<int> visits;
    auto shards = RunRegion(&pool, 0, n, 1, &visits);
    ExpectExactCover(shards, 0, n, visits);
  }
}

TEST(ParallelForPartitionTest, FewerElementsThanLanes) {
  ThreadPool pool(7);  // 8 lanes, 3 elements.
  std::vector<int> visits;
  auto shards = RunRegion(&pool, 0, 3, 1, &visits);
  ExpectExactCover(shards, 0, 3, visits);
  EXPECT_LE(shards.size(), 3u) << "more shards than elements";
}

TEST(ParallelForPartitionTest, GrainBoundsShardCount) {
  ThreadPool pool(7);
  std::vector<int> visits;
  auto shards = RunRegion(&pool, 0, 100, 40, &visits);
  ExpectExactCover(shards, 0, 100, visits);
  for (const auto& [b, e] : shards) {
    EXPECT_GE(e - b, 40u) << "shard smaller than grain";
  }
}

TEST(ParallelForPartitionTest, BoundariesAreDeterministic) {
  ThreadPool pool(3);
  auto first = RunRegion(&pool, 0, 1003, 10, nullptr);
  for (int repeat = 0; repeat < 8; ++repeat) {
    auto again = RunRegion(&pool, 0, 1003, 10, nullptr);
    EXPECT_EQ(again, first) << "shard boundaries changed between runs";
  }
}

// --- 2. Counter-based noise streams -------------------------------------

// The hoisted two-stage derivation must equal the one-shot key for every
// triple; batch consumers rely on this to hoist TickBase out of the
// per-stream loop without changing a single bit.
static_assert(counter_rng::Key(1, 2, 3) ==
              counter_rng::StreamKey(counter_rng::TickBase(1, 3), 2));
static_assert(counter_rng::Key(0, 0, 0) ==
              counter_rng::StreamKey(counter_rng::TickBase(0, 0), 0));

TEST(CounterRngTest, TwoStageDerivationMatchesOneShotKey) {
  Rng rng(kSeed);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t seed = rng.NextU64();
    const uint64_t stream = rng.NextU64() % 4096;
    const uint64_t tick = rng.NextU64() % 100000;
    EXPECT_EQ(counter_rng::Key(seed, stream, tick),
              counter_rng::StreamKey(counter_rng::TickBase(seed, tick),
                                     stream));
  }
}

TEST(CounterRngTest, VariatesArePureFunctionsOfTheKey) {
  const uint64_t key = counter_rng::Key(kSeed, 17, 93);
  const auto a = counter_rng::StandardNormalPair(key);
  const auto b = counter_rng::StandardNormalPair(key);
  EXPECT_EQ(a.z0, b.z0);
  EXPECT_EQ(a.z1, b.z1);
  EXPECT_EQ(counter_rng::StandardNormal(key), a.z0);
  EXPECT_EQ(counter_rng::U64(key), counter_rng::U64(key));
}

TEST(CounterRngTest, PinnedValuesCatchSilentMixerChanges) {
  // Changing the mixer silently invalidates every committed golden; these
  // pins make the change loud. Regenerating them is deliberate work, like
  // regenerating tests/golden/.
  EXPECT_EQ(counter_rng::Key(1, 2, 3), 0x4597cad65a5171b4ULL);
  EXPECT_EQ(counter_rng::U64(counter_rng::Key(42, 0, 0)),
            0xde831df328d6f959ULL);
  const auto pair = counter_rng::StandardNormalPair(counter_rng::Key(7, 11, 13));
  EXPECT_DOUBLE_EQ(pair.z0, 0.18342037207316905);
  EXPECT_DOUBLE_EQ(pair.z1, 0.77187129066730675);
}

TEST(CounterRngTest, NeighboringStreamsAndTicksDecorrelate) {
  // Loose distribution sanity over a structured key grid (the pattern the
  // sampler actually uses: consecutive streams at consecutive ticks).
  double sum = 0.0, sum_sq = 0.0;
  int n = 0;
  for (uint64_t tick = 0; tick < 200; ++tick) {
    const uint64_t base = counter_rng::TickBase(kSeed, tick);
    for (uint64_t stream = 0; stream < 250; ++stream) {
      const auto pair =
          counter_rng::StandardNormalPair(counter_rng::StreamKey(base, stream));
      for (double z : {pair.z0, pair.z1}) {
        sum += z;
        sum_sq += z * z;
        ++n;
      }
    }
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// --- 2b. Batched kernels vs their scalar twins ---------------------------
//
// The vectorized span kernels must be bit-identical to the per-element code
// they replaced: the batched Box-Muller is a strip-mined restructure of
// StandardNormalPair, PowerSpanUniformFreq repeats the scalar model's
// expressions in the same operand order, and SumBlocked4's association is a
// pure function of span length. Any divergence silently invalidates the
// byte-identity contract, so these tests pin the identities directly.

TEST(BatchedKernelIdentityTest, NoiseSpanMatchesScalarPairs) {
  // Lengths straddle the kernel's internal 64-pair block: 1, odd tails,
  // exactly one block, one block + 1, and two blocks + ragged tail.
  for (size_t num_pairs : {size_t{1}, size_t{3}, size_t{7}, size_t{64},
                           size_t{65}, size_t{130}}) {
    for (uint64_t tick : {uint64_t{0}, uint64_t{977}}) {
      const uint64_t base = counter_rng::TickBase(kSeed, tick);
      const uint64_t first_stream = 5;
      std::vector<double> z(2 * num_pairs, 0.0);
      counter_rng::StandardNormalSpan(base, first_stream, num_pairs,
                                      z.data());
      for (size_t k = 0; k < num_pairs; ++k) {
        const auto pair = counter_rng::StandardNormalPair(
            counter_rng::StreamKey(base, first_stream + k));
        EXPECT_EQ(z[2 * k], pair.z0)
            << "pair " << k << " of " << num_pairs << " at tick " << tick;
        EXPECT_EQ(z[2 * k + 1], pair.z1)
            << "pair " << k << " of " << num_pairs << " at tick " << tick;
      }
    }
  }
}

TEST(BatchedKernelIdentityTest, NoiseSpanReproducesPinnedValues) {
  // The same pins PinnedValuesCatchSilentMixerChanges holds for the scalar
  // path: Key(7, 11, 13) == StreamKey(TickBase(7, 13), 11), so a one-pair
  // span starting at stream 11 must reproduce them exactly.
  double z[2] = {0.0, 0.0};
  counter_rng::StandardNormalSpan(counter_rng::TickBase(7, 13), 11, 1, z);
  EXPECT_DOUBLE_EQ(z[0], 0.18342037207316905);
  EXPECT_DOUBLE_EQ(z[1], 0.77187129066730675);
}

TEST(BatchedKernelIdentityTest, SumKernelsMatchHandRolledOrders) {
  // Both reductions are pinned against hand-rolled accumulations of their
  // documented association, so a "smart" rewrite cannot sneak in.
  Rng rng(kSeed);
  std::vector<double> x(423);
  for (double& v : x) {
    v = rng.Uniform(80.0, 260.0);
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{42}, size_t{417}, size_t{420}, size_t{423}}) {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    const size_t main = n - n % 4;
    for (size_t i = 0; i < main; ++i) {
      lanes[i % 4] += x[i];
    }
    double blocked = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (size_t i = main; i < n; ++i) {
      blocked += x[i];
    }
    EXPECT_EQ(span_kernels::SumBlocked4(x.data(), n), blocked) << "n=" << n;
  }
  double expected = 0.0;
  for (size_t i = 0; i < 417; ++i) {
    expected += x[i];
  }
  EXPECT_EQ(span_kernels::SumSequential(x.data(), 417), expected);
}

TEST(BatchedKernelIdentityTest, PowerSpanUniformFreqMatchesScalarModel) {
  for (double alpha : {1.0, 1.35}) {
    PowerModelParams params;
    params.alpha = alpha;
    const ServerPowerModel model(params);
    Rng rng(kSeed);
    for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{42}}) {
      std::vector<double> util(n);
      for (double& u : util) {
        u = rng.Uniform(0.0, 1.0);
      }
      for (double freq : {1.0, 0.8, 0.55}) {
        std::vector<double> power(n), dynamic_full(n);
        model.PowerSpanUniformFreq(util.data(), freq, power.data(),
                                   dynamic_full.data(), n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(power[i], model.PowerAt(util[i], freq))
              << "alpha=" << alpha << " freq=" << freq << " i=" << i;
          EXPECT_EQ(dynamic_full[i], model.DynamicPowerAt(util[i], 1.0))
              << "alpha=" << alpha << " freq=" << freq << " i=" << i;
        }
      }
    }
  }
}

TEST(BatchedKernelIdentityTest, RowCapBatchedAndScalarPathsAgree) {
  // Two identical fleets under the same tight row-1 budget. The reference
  // fleet holds one SLEEPING server in row 0, which routes every
  // ApplyRowFrequency through the exact per-server fallback; the batched
  // fleet is fully awake and takes the span path. Row 1 never contains the
  // sleeper, so its capping inputs are identical in both fleets — the
  // per-server outcomes must match bit-for-bit, and the aggregates may
  // differ only by summation association (bounded far below 1e-9).
  auto build = [](Simulation* sim) {
    TopologyConfig topology;
    topology.num_rows = 2;
    topology.racks_per_row = 3;
    topology.servers_per_rack = 7;  // Odd rack span for the blocked tail.
    topology.capping_enabled = true;
    auto dc = std::make_unique<DataCenter>(topology, sim);
    Rng rng(kSeed);
    for (int32_t s = 0; s < dc->num_servers(); ++s) {
      if (rng.Bernoulli(0.85)) {
        dc->PlaceTask(ServerId(s),
                      TaskSpec{JobId(s), Resources{rng.Uniform(4.0, 14.0),
                                                   rng.Uniform(1.0, 48.0)},
                               SimTime::Hours(100)});
      }
    }
    return dc;
  };
  Simulation sim_batched, sim_scalar;
  auto batched = build(&sim_batched);
  auto scalar = build(&sim_scalar);
  // Idle server 0 sleeps in the scalar fleet (it must hold no tasks; the
  // seeded placement above leaves it busy, so complete it by brute force:
  // pick the first task-free server in row 0).
  ServerId sleeper;
  for (ServerId id : scalar->servers_in_row(RowId(0))) {
    if (scalar->server(id).num_tasks() == 0) {
      sleeper = id;
      break;
    }
  }
  ASSERT_TRUE(sleeper.valid()) << "seed left no idle server in row 0";
  scalar->SleepServer(sleeper);

  // Throttle row 1 hard, then release it — both transitions exercise the
  // bulk path (enforce and release).
  const RowId row(1);
  const double budget = 0.70 * scalar->row_budget_watts(row);
  batched->SetRowCappingBudget(row, budget);
  scalar->SetRowCappingBudget(row, budget);
  EXPECT_LT(batched->row_throttle(row), 1.0) << "budget did not bind";
  EXPECT_EQ(batched->row_throttle(row), scalar->row_throttle(row));
  EXPECT_EQ(batched->FractionOfServersCapped(row),
            scalar->FractionOfServersCapped(row));
  auto expect_row_matches = [&](const char* when) {
    const DataCenter::IndexRange range = batched->server_range_of_row(row);
    std::span<const double> batched_power = batched->server_power_soa();
    std::span<const double> scalar_power = scalar->server_power_soa();
    for (size_t i = range.begin; i < range.end; ++i) {
      const ServerId id(static_cast<int32_t>(i));
      EXPECT_EQ(batched->server(id).frequency(),
                scalar->server(id).frequency())
          << when << ": server " << i;
      EXPECT_EQ(batched_power[i], scalar_power[i]) << when << ": server "
                                                   << i;
    }
    EXPECT_NEAR(batched->row_power_watts(row),
                scalar->row_power_watts(row), 1e-9)
        << when;
    EXPECT_NEAR(batched->row_power_watts(row),
                batched->ExactRowPowerWatts(row), 1e-9)
        << when;
  };
  expect_row_matches("capped");
  batched->SetCappingEnabled(false);
  scalar->SetCappingEnabled(false);
  expect_row_matches("released");
  // After an exact resummation both fleets' aggregates snap to the same
  // sequential-order sums over row 1 — bit-identical again.
  batched->ResummatePowerAggregates();
  scalar->ResummatePowerAggregates();
  EXPECT_EQ(batched->row_power_watts(row), scalar->row_power_watts(row));
}

// --- 3. DataCenter parallel resummation identity -------------------------

TEST(ParallelResummateTest, AggregatesAreBitIdenticalAtAnyJobCount) {
  auto build = [] {
    TopologyConfig topology;
    topology.num_rows = 3;
    topology.racks_per_row = 4;
    topology.servers_per_rack = 6;
    return topology;
  };
  // Reference: serial resummation (no pool attached).
  Simulation sim;
  DataCenter dc(build(), &sim);
  Rng rng(kSeed);
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    if (rng.Bernoulli(0.8)) {
      dc.PlaceTask(ServerId(s),
                   TaskSpec{JobId(s), Resources{rng.Uniform(1.0, 12.0),
                                                rng.Uniform(1.0, 48.0)},
                            SimTime::Hours(100)});
    }
  }
  dc.ResummatePowerAggregates();
  std::vector<double> rack_ref, row_ref;
  for (int r = 0; r < dc.num_racks(); ++r) {
    rack_ref.push_back(dc.rack_power_watts(RackId(r)));
  }
  for (int r = 0; r < dc.num_rows(); ++r) {
    row_ref.push_back(dc.row_power_watts(RowId(r)));
    EXPECT_EQ(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)));
  }
  const double total_ref = dc.total_power_watts();

  for (int jobs : {2, 8}) {
    ThreadPool pool(jobs - 1);
    dc.SetThreadPool(&pool);
    for (int repeat = 0; repeat < 4; ++repeat) {
      dc.ResummatePowerAggregates();
      for (int r = 0; r < dc.num_racks(); ++r) {
        EXPECT_EQ(dc.rack_power_watts(RackId(r)),
                  rack_ref[static_cast<size_t>(r)])
            << "rack " << r << " at jobs=" << jobs;
      }
      for (int r = 0; r < dc.num_rows(); ++r) {
        EXPECT_EQ(dc.row_power_watts(RowId(r)),
                  row_ref[static_cast<size_t>(r)])
            << "row " << r << " at jobs=" << jobs;
      }
      EXPECT_EQ(dc.total_power_watts(), total_ref) << "at jobs=" << jobs;
    }
    dc.SetThreadPool(nullptr);
  }
}

TEST(ParallelResummateTest, OddRackSpansStayExactAtAnyJobCount) {
  // Rack spans of 1/3/7 exercise every tail length of the span kernels
  // (and the degenerate one-server rack). The resummed aggregates must
  // equal the Exact* sums bit-for-bit, serial or sharded.
  for (int servers_per_rack : {1, 3, 7}) {
    TopologyConfig topology;
    topology.num_rows = 2;
    topology.racks_per_row = 3;
    topology.servers_per_rack = servers_per_rack;
    Simulation sim;
    DataCenter dc(topology, &sim);
    Rng rng(kSeed);
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      if (rng.Bernoulli(0.7)) {
        dc.PlaceTask(ServerId(s),
                     TaskSpec{JobId(s), Resources{rng.Uniform(1.0, 12.0),
                                                  rng.Uniform(1.0, 48.0)},
                              SimTime::Hours(100)});
      }
    }
    ThreadPool pool(3);
    for (bool sharded : {false, true}) {
      dc.SetThreadPool(sharded ? &pool : nullptr);
      dc.ResummatePowerAggregates();
      for (int r = 0; r < dc.num_racks(); ++r) {
        EXPECT_EQ(dc.rack_power_watts(RackId(r)),
                  dc.ExactRackPowerWatts(RackId(r)))
            << "rack " << r << " span=" << servers_per_rack
            << " sharded=" << sharded;
      }
      for (int r = 0; r < dc.num_rows(); ++r) {
        EXPECT_EQ(dc.row_power_watts(RowId(r)),
                  dc.ExactRowPowerWatts(RowId(r)))
            << "row " << r << " span=" << servers_per_rack
            << " sharded=" << sharded;
      }
      EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts())
          << "span=" << servers_per_rack << " sharded=" << sharded;
    }
  }
}

// --- 4. The jobs matrix: full closed loop --------------------------------

ExperimentConfig MatrixConfig(int jobs) {
  ExperimentConfig config;
  config.seed = kSeed;
  config.jobs = jobs;
  config.topology.num_rows = 2;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 8;  // 48 servers.
  config.monitor.record_servers = true;  // Per-server series in the db too.
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 0.97, 0.25);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(2);
  return config;
}

struct MatrixArtifacts {
  std::string journal_csv;
  std::string db_csv;
};

MatrixArtifacts RunMatrixExperiment(int jobs) {
  ControlledExperiment experiment(MatrixConfig(jobs));
  experiment.Run();
  MatrixArtifacts artifacts;
  if (experiment.controller() == nullptr) {
    ADD_FAILURE() << "matrix config must enable the controller";
    return artifacts;
  }
  artifacts.journal_csv = experiment.controller()->journal().ToCsv();
  const std::vector<std::string> names = experiment.db().SeriesNames();
  std::ostringstream out;
  ExportCsv(experiment.db(), names, out);
  artifacts.db_csv = out.str();
  return artifacts;
}

// Helper because ASSERT_* needs a void-returning context.
void RunMatrixExperimentInto(int jobs, MatrixArtifacts* artifacts) {
  *artifacts = RunMatrixExperiment(jobs);
}

TEST(JobsMatrixTest, JournalAndDbBytesIdenticalAtJobs128) {
  MatrixArtifacts reference;
  RunMatrixExperimentInto(1, &reference);
  ASSERT_FALSE(reference.journal_csv.empty());
  ASSERT_FALSE(reference.db_csv.empty());
  // Not vacuous: a 2h measured run ticks the controller >= 100 times, and
  // each tick journals at least one row.
  ASSERT_GE(std::count(reference.journal_csv.begin(),
                       reference.journal_csv.end(), '\n'),
            100);
  // Per-server series must actually be in the serialized db, or the test
  // would pass vacuously on aggregate-only contents.
  ASSERT_NE(reference.db_csv.find("server/"), std::string::npos);
  for (int jobs : {2, 8}) {
    MatrixArtifacts parallel;
    RunMatrixExperimentInto(jobs, &parallel);
    EXPECT_EQ(parallel.journal_csv, reference.journal_csv)
        << "DecisionJournal CSV diverged at jobs=" << jobs;
    EXPECT_EQ(parallel.db_csv, reference.db_csv)
        << "TimeSeriesDb contents diverged at jobs=" << jobs;
  }
}

TEST(JobsMatrixTest, GridResultTableBytesIdenticalAcrossInnerJobs) {
  struct Arm {
    const char* name;
    double target_power;
  };
  const std::vector<Arm> arms = {{"light", 0.90}, {"heavy", 0.99}};
  auto run_grid = [&arms](int inner_jobs) {
    harness::RunnerOptions options;
    options.jobs = 2;  // Scenario-level parallelism composes with inner pools.
    auto grid = harness::RunGridOver(
        arms,
        [](const Arm& arm, size_t i) {
          return harness::GridMeta{arm.name, kSeed + i};
        },
        [inner_jobs](const Arm& arm, harness::RunContext& context) {
          ExperimentConfig config = MatrixConfig(inner_jobs);
          config.monitor.record_servers = false;  // Keep the runs lean.
          config.workload.arrivals.base_rate_per_min =
              ArrivalRateForNormalizedPower(config.topology, config.workload,
                                            arm.target_power, 0.25);
          config.duration = SimTime::Hours(1);
          ExperimentResult result = RunExperimentToResult(config);
          context.Metric("u_mean", result.experiment.u_mean);
          context.Metric("P_mean", result.experiment.p_mean);
          context.Metric("P_max", result.experiment.p_max);
          context.Metric("violations", result.experiment.violations);
          context.Metric("gain_tpw", result.gain_tpw);
          context.Metric("jobs_completed",
                         static_cast<double>(result.jobs_completed));
          return result;
        },
        options);
    for (const harness::ResultRow& row : grid.table.rows()) {
      EXPECT_TRUE(row.ok) << row.scenario << ": " << row.error;
    }
    return grid.table.ToCsv();
  };
  const std::string reference = run_grid(1);
  ASSERT_FALSE(reference.empty());
  for (int jobs : {2, 8}) {
    EXPECT_EQ(run_grid(jobs), reference)
        << "ResultTable CSV diverged at inner jobs=" << jobs;
  }
}

// --- 5. Campus federation jobs matrix ------------------------------------
//
// The campus layer multiplies every parallel surface by the DC count: four
// monitors shard sample passes on one shared pool, the allocator re-plans
// from their outputs, and spillover moves jobs across schedulers. The same
// contract must hold: byte-identical artifacts at jobs in {1, 2, 8}.

ExperimentConfig CampusMatrixConfig(int jobs) {
  ExperimentConfig config = MatrixConfig(jobs);
  config.duration = SimTime::Hours(1);
  config.campus.enabled = true;
  config.campus.num_datacenters = 4;  // 4 x 48 = 192 servers.
  // Heterogeneous operating points so the headroom allocator actually moves
  // budget (a uniform campus would make the re-plans near-no-ops).
  // All above the ~0.81 idle floor (idle_fraction 0.65 at rO = 0.25).
  config.campus.dc_target_power = {0.99, 0.95, 0.90, 0.85};
  config.campus.enable_spillover = true;
  config.campus.spillover_queue_threshold = 4;
  config.campus.spillover_max_jobs_per_pass = 8;
  return config;
}

struct CampusArtifacts {
  std::string allocator_csv;
  std::string controllers_csv;  // Per-DC controller journals, DC order.
  std::string db_csv;
};

void RunCampusMatrixInto(int jobs, CampusArtifacts* artifacts) {
  CampusExperiment experiment(CampusMatrixConfig(jobs));
  experiment.Run();
  artifacts->allocator_csv = experiment.allocator().journal().ToCsv();
  artifacts->controllers_csv.clear();
  for (int d = 0; d < experiment.campus().num_datacenters(); ++d) {
    artifacts->controllers_csv +=
        experiment.controller(DataCenterId(d)).journal().ToCsv();
  }
  const std::vector<std::string> names = experiment.db().SeriesNames();
  std::ostringstream out;
  ExportCsv(experiment.db(), names, out);
  artifacts->db_csv = out.str();
}

TEST(CampusJobsMatrixTest, AllArtifactBytesIdenticalAtJobs128) {
  CampusArtifacts reference;
  RunCampusMatrixInto(1, &reference);
  // Not vacuous: the 1 h window re-plans 4 times x 4 DCs = 16 audit rows
  // past the header, and every DC's controller ticks every minute.
  ASSERT_GE(std::count(reference.allocator_csv.begin(),
                       reference.allocator_csv.end(), '\n'),
            17);
  ASSERT_GE(std::count(reference.controllers_csv.begin(),
                       reference.controllers_csv.end(), '\n'),
            4 * 60);
  // Per-server series under the last DC's prefix must be present, or the db
  // comparison could pass on a partially built campus.
  ASSERT_NE(reference.db_csv.find("campus/dc3/server/"), std::string::npos);
  for (int jobs : {2, 8}) {
    CampusArtifacts parallel;
    RunCampusMatrixInto(jobs, &parallel);
    EXPECT_EQ(parallel.allocator_csv, reference.allocator_csv)
        << "allocator journal CSV diverged at jobs=" << jobs;
    EXPECT_EQ(parallel.controllers_csv, reference.controllers_csv)
        << "per-DC controller journals diverged at jobs=" << jobs;
    EXPECT_EQ(parallel.db_csv, reference.db_csv)
        << "TimeSeriesDb contents diverged at jobs=" << jobs;
  }
}

TEST(CampusJobsMatrixTest, GridResultTableBytesIdenticalAcrossInnerJobs) {
  struct Arm {
    const char* name;
    CampusAllocPolicy policy;
  };
  const std::vector<Arm> arms = {{"static", CampusAllocPolicy::kStatic},
                                 {"headroom", CampusAllocPolicy::kHeadroom}};
  auto run_grid = [&arms](int inner_jobs) {
    harness::RunnerOptions options;
    options.jobs = 2;
    auto grid = harness::RunGridOver(
        arms,
        [](const Arm& arm, size_t i) {
          return harness::GridMeta{arm.name, kSeed + i};
        },
        [inner_jobs](const Arm& arm, harness::RunContext& context) {
          ExperimentConfig config = CampusMatrixConfig(inner_jobs);
          config.monitor.record_servers = false;  // Keep the runs lean.
          config.campus.allocator.policy = arm.policy;
          CampusResult result = RunCampusToResult(config);
          context.Metric("gain_tpw", result.gain_tpw);
          context.Metric("throughput_ratio", result.throughput_ratio);
          context.Metric("replans", static_cast<double>(result.replans));
          context.Metric("spillover_jobs",
                         static_cast<double>(result.spillover_jobs));
          context.Metric("dc0_budget", result.dcs[0].final_budget_watts);
          return result;
        },
        options);
    for (const harness::ResultRow& row : grid.table.rows()) {
      EXPECT_TRUE(row.ok) << row.scenario << ": " << row.error;
    }
    return grid.table.ToCsv();
  };
  const std::string reference = run_grid(1);
  ASSERT_FALSE(reference.empty());
  for (int jobs : {2, 8}) {
    EXPECT_EQ(run_grid(jobs), reference)
        << "campus ResultTable CSV diverged at inner jobs=" << jobs;
  }
}

// --- 6. Record -> serialize -> parse -> replay round trip ----------------
//
// The trace subsystem's contract: a replayed trace is not merely
// statistically similar to the run it was recorded from — it reproduces the
// run byte-for-byte, at any job count. These tests record the section-4
// matrix run, push the trace through the full byte round trip
// (SerializeTrace -> ParseTrace), replay it, and require the controller
// DecisionJournal CSV and the entire serialized TimeSeriesDb to match the
// recording run exactly at jobs in {1, 2, 8}.

MatrixArtifacts RunMatrixWithConfig(const ExperimentConfig& config,
                                    std::shared_ptr<const TraceData>* trace) {
  ControlledExperiment experiment(config);
  experiment.Run();
  MatrixArtifacts artifacts;
  if (experiment.controller() == nullptr) {
    ADD_FAILURE() << "matrix config must enable the controller";
    return artifacts;
  }
  artifacts.journal_csv = experiment.controller()->journal().ToCsv();
  const std::vector<std::string> names = experiment.db().SeriesNames();
  std::ostringstream out;
  ExportCsv(experiment.db(), names, out);
  artifacts.db_csv = out.str();
  if (trace != nullptr) {
    *trace = experiment.RecordedTrace();
  }
  return artifacts;
}

// One byte round trip, shared by the tests below: serialize, reparse, and
// hand back the parsed copy (failing loudly if the bytes do not parse).
std::shared_ptr<const TraceData> ByteRoundTrip(const TraceData& trace) {
  const std::string bytes = SerializeTrace(trace);
  TraceParseResult parsed = ParseTrace(bytes);
  EXPECT_TRUE(parsed.ok()) << parsed.message;
  EXPECT_EQ(parsed.trace.jobs.size(), trace.jobs.size());
  return std::make_shared<const TraceData>(std::move(parsed.trace));
}

TEST(TraceRoundTripTest, RecordingIsAPassThroughDecorator) {
  // Interposing the recorder must not shift a single byte of the run.
  MatrixArtifacts plain;
  RunMatrixExperimentInto(1, &plain);
  ExperimentConfig config = MatrixConfig(1);
  config.trace.record = true;
  std::shared_ptr<const TraceData> trace;
  MatrixArtifacts recording = RunMatrixWithConfig(config, &trace);
  EXPECT_EQ(recording.journal_csv, plain.journal_csv);
  EXPECT_EQ(recording.db_csv, plain.db_csv);
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->jobs.size(), 1000u) << "2.5 h at ~25 jobs/min";
  EXPECT_EQ(trace->seed, config.seed);
}

TEST(TraceRoundTripTest, ReplayReproducesJournalAndDbBytesAtJobs128) {
  ExperimentConfig record_config = MatrixConfig(1);
  record_config.trace.record = true;
  std::shared_ptr<const TraceData> trace;
  const MatrixArtifacts reference = RunMatrixWithConfig(record_config, &trace);
  ASSERT_FALSE(reference.journal_csv.empty());
  ASSERT_NE(reference.db_csv.find("server/"), std::string::npos);
  ASSERT_NE(trace, nullptr);

  std::shared_ptr<const TraceData> reparsed = ByteRoundTrip(*trace);
  for (int jobs : {1, 2, 8}) {
    ExperimentConfig replay_config = MatrixConfig(jobs);
    replay_config.trace.replay_data = reparsed;
    MatrixArtifacts replayed = RunMatrixWithConfig(replay_config, nullptr);
    EXPECT_EQ(replayed.journal_csv, reference.journal_csv)
        << "replayed DecisionJournal CSV diverged at jobs=" << jobs;
    EXPECT_EQ(replayed.db_csv, reference.db_csv)
        << "replayed TimeSeriesDb contents diverged at jobs=" << jobs;
  }
}

TEST(TraceRoundTripTest, ReplayWhileRecordingReproducesTheTrace) {
  // Record a replay of a recording: the second-generation trace must equal
  // the first (replay feeds the recorder the same submissions at the same
  // instants).
  ExperimentConfig record_config = MatrixConfig(1);
  record_config.trace.record = true;
  std::shared_ptr<const TraceData> first;
  RunMatrixWithConfig(record_config, &first);
  ASSERT_NE(first, nullptr);

  ExperimentConfig rerecord_config = MatrixConfig(1);
  rerecord_config.trace.replay_data = ByteRoundTrip(*first);
  rerecord_config.trace.record = true;
  std::shared_ptr<const TraceData> second;
  RunMatrixWithConfig(rerecord_config, &second);
  ASSERT_NE(second, nullptr);

  ASSERT_EQ(second->jobs.size(), first->jobs.size());
  for (size_t i = 0; i < first->jobs.size(); ++i) {
    EXPECT_EQ(second->jobs[i].submit_us, first->jobs[i].submit_us);
    EXPECT_EQ(second->jobs[i].duration_us, first->jobs[i].duration_us);
    EXPECT_EQ(second->jobs[i].cpu_cores, first->jobs[i].cpu_cores);
    EXPECT_EQ(second->jobs[i].memory_gb, first->jobs[i].memory_gb);
    EXPECT_EQ(second->jobs[i].class_id, first->jobs[i].class_id);
  }
  // And byte-equal after serialization, which also covers the header.
  EXPECT_EQ(SerializeTrace(*second), SerializeTrace(*first));
}

// --- 7. The jobs matrix under spill --------------------------------------
//
// The cold tier is write-path-only during the closed loop (the controller
// and metrics read the monitor's caches, never the db), so enabling spill
// must not move a single byte of any artifact: the DecisionJournal and the
// stitched TimeSeriesDb CSV (ExportCsv reads hot + cold) must equal the
// RAM-only reference at jobs in {1, 2, 8}. And the restart contract: a
// store reopened via OpenExisting in a fresh process serves the identical
// cold bytes the sealing run produced.

// Canonical per-point rendering of a stitched series, capped at `limit`
// points — the byte form both halves of the restart comparison share.
std::string CanonicalStitched(const TimeSeriesDb& db, const std::string& name,
                              size_t limit) {
  std::string out;
  size_t emitted = 0;
  db.SeriesStitched(name).ForEachPoint([&](const TimePoint& point) {
    if (emitted++ >= limit) {
      return;
    }
    char line[64];
    std::snprintf(line, sizeof(line), "%lld %.17g\n",
                  static_cast<long long>(point.time.micros()), point.value);
    out += line;
  });
  return out;
}

TEST(SpillJobsMatrixTest, SpillArtifactsByteIdenticalToRamOnlyAtJobs128) {
  const ScratchDir scratch("spill_matrix");
  const std::string& dir = scratch.path();
  MatrixArtifacts reference;
  RunMatrixExperimentInto(1, &reference);
  ASSERT_NE(reference.db_csv.find("server/"), std::string::npos);
  for (int jobs : {1, 2, 8}) {
    ExperimentConfig config = MatrixConfig(jobs);
    config.storage.store_dir = dir + "/jobs" + std::to_string(jobs);
    config.storage.hot_budget_samples = 48;  // Force heavy spilling.
    ControlledExperiment experiment(config);
    experiment.Run();
    ASSERT_NE(experiment.cold_store(), nullptr);
    EXPECT_GT(experiment.db().samples_spilled(), 0u)
        << "budget 48 over a 2.5 h run must spill, or this test is vacuous";
    EXPECT_EQ(experiment.controller()->journal().ToCsv(),
              reference.journal_csv)
        << "DecisionJournal CSV diverged under spill at jobs=" << jobs;
    std::ostringstream out;
    ExportCsv(experiment.db(), experiment.db().SeriesNames(), out);
    EXPECT_EQ(out.str(), reference.db_csv)
        << "stitched TimeSeriesDb CSV diverged under spill at jobs=" << jobs;
  }
}

TEST(SpillJobsMatrixTest, OpenExistingReproducesColdBytesAfterRestart) {
  const ScratchDir scratch("spill_restart");
  const std::string dir = scratch.path() + "/store";
  constexpr size_t kHotBudget = 48;
  std::map<std::string, std::string> want;  // series -> cold-prefix bytes.
  {
    ExperimentConfig config = MatrixConfig(1);
    config.storage.store_dir = dir;
    config.storage.hot_budget_samples = kHotBudget;
    ControlledExperiment experiment(config);
    experiment.Run();  // Flushes the store on the way out.
    ASSERT_NE(experiment.cold_store(), nullptr);
    const ColdStore& store = *experiment.cold_store();
    for (const std::string& name : store.SeriesNames()) {
      want[name] = CanonicalStitched(experiment.db(), name,
                                     store.SamplesForSeries(name));
    }
    ASSERT_GT(want.size(), 48u) << "per-server series must have spilled";
  }  // Experiment (and its store) destroyed: the restart boundary.

  auto reopened = ColdStore::OpenExisting(ColdStoreConfig{dir});
  ASSERT_TRUE(reopened.status.ok()) << reopened.status.message;
  TimeSeriesDb restarted;
  restarted.AttachColdStore(reopened.store.get(), kHotBudget);
  ASSERT_EQ(restarted.SeriesNames().size(), want.size());
  for (const auto& [name, bytes] : want) {
    EXPECT_EQ(CanonicalStitched(restarted, name, SIZE_MAX), bytes)
        << "cold bytes changed across restart for " << name;
  }
}

TEST(TraceRoundTripTest, GridResultTableBytesIdenticalForReplayArm) {
  // The harness-level artifact: a one-arm grid run from the replayed trace
  // must emit the same ResultTable CSV at any inner job count, and the same
  // metric values as the synthetic source run.
  ExperimentConfig record_config = MatrixConfig(1);
  record_config.trace.record = true;
  std::shared_ptr<const TraceData> trace;
  RunMatrixWithConfig(record_config, &trace);
  ASSERT_NE(trace, nullptr);
  std::shared_ptr<const TraceData> reparsed = ByteRoundTrip(*trace);

  auto run_grid = [&reparsed](int inner_jobs) {
    const std::vector<int> arms = {0};
    harness::RunnerOptions options;
    options.jobs = 1;
    auto grid = harness::RunGridOver(
        arms,
        [](int, size_t) { return harness::GridMeta{"replay", kSeed}; },
        [&reparsed, inner_jobs](int, harness::RunContext& context) {
          ExperimentConfig config = MatrixConfig(inner_jobs);
          config.trace.replay_data = reparsed;
          ExperimentResult result = RunExperimentToResult(config);
          context.Metric("u_mean", result.experiment.u_mean);
          context.Metric("P_max", result.experiment.p_max);
          context.Metric("violations", result.experiment.violations);
          context.Metric("jobs_completed",
                         static_cast<double>(result.jobs_completed));
          context.Metric("replayed",
                         static_cast<double>(result.trace_jobs_replayed));
          return result;
        },
        options);
    for (const harness::ResultRow& row : grid.table.rows()) {
      EXPECT_TRUE(row.ok) << row.scenario << ": " << row.error;
    }
    return grid.table.ToCsv();
  };
  const std::string reference = run_grid(1);
  ASSERT_FALSE(reference.empty());
  for (int jobs : {2, 8}) {
    EXPECT_EQ(run_grid(jobs), reference)
        << "replay-arm ResultTable CSV diverged at inner jobs=" << jobs;
  }
}

}  // namespace
}  // namespace ampere
