// Determinism contract: a run's artifacts are a pure function of its
// config. These tests pin it at four levels:
//
//   1. Counter-based noise streams — a variate is a pure function of
//      (seed, stream, tick); the two-stage key derivation (hoisted TickBase
//      + per-stream StreamKey) matches the one-shot Key; exact pinned
//      values catch silent mixer changes.
//   2. Batched kernels — the span kernels are bit-identical to the scalar
//      code they stand in for, and the exact resummation equals the Exact*
//      sums over every rack-span tail length.
//   3. Trace round trip — recording is a pass-through, and replaying the
//      reparsed trace reproduces the controller DecisionJournal CSV and the
//      entire TimeSeriesDb (per-server series included) byte for byte.
//   4. Spill identity — the cold tier moves no byte of any artifact, and a
//      reopened store serves the cold bytes the sealing run wrote.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/common/span_kernels.h"
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

// --- 1. Counter-based noise streams -------------------------------------

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

// --- 2. Batched kernels vs their scalar twins ----------------------------
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

TEST(ResummateTest, OddRackSpansStayExact) {
  // Rack spans of 1/3/7 exercise every tail length of the span kernels
  // (and the degenerate one-server rack). The resummed aggregates must
  // equal the Exact* sums bit-for-bit.
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
    dc.ResummatePowerAggregates();
    for (int r = 0; r < dc.num_racks(); ++r) {
      EXPECT_EQ(dc.rack_power_watts(RackId(r)),
                dc.ExactRackPowerWatts(RackId(r)))
          << "rack " << r << " span=" << servers_per_rack;
    }
    for (int r = 0; r < dc.num_rows(); ++r) {
      EXPECT_EQ(dc.row_power_watts(RowId(r)), dc.ExactRowPowerWatts(RowId(r)))
          << "row " << r << " span=" << servers_per_rack;
    }
    EXPECT_EQ(dc.total_power_watts(), dc.ExactTotalPowerWatts())
        << "span=" << servers_per_rack;
  }
}

// --- 3. Record -> serialize -> parse -> replay round trip ----------------
//
// The trace subsystem's contract: a replayed trace is not merely
// statistically similar to the run it was recorded from — it reproduces the
// run byte-for-byte. These tests record a 48-server closed-loop run, push
// the trace through the full byte round trip (SerializeTrace -> ParseTrace),
// replay it, and require the controller DecisionJournal CSV and the entire
// serialized TimeSeriesDb to match the recording run exactly.

ExperimentConfig LoopConfig() {
  ExperimentConfig config;
  config.seed = kSeed;
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

struct LoopArtifacts {
  std::string journal_csv;
  std::string db_csv;
};

LoopArtifacts RunLoop(const ExperimentConfig& config,
                                    std::shared_ptr<const TraceData>* trace) {
  ControlledExperiment experiment(config);
  experiment.Run();
  LoopArtifacts artifacts;
  if (experiment.controller() == nullptr) {
    ADD_FAILURE() << "loop config must enable the controller";
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

LoopArtifacts RunDefaultLoop() {
  return RunLoop(LoopConfig(), nullptr);
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
  const LoopArtifacts plain = RunDefaultLoop();
  ExperimentConfig config = LoopConfig();
  config.trace.record = true;
  std::shared_ptr<const TraceData> trace;
  LoopArtifacts recording = RunLoop(config, &trace);
  EXPECT_EQ(recording.journal_csv, plain.journal_csv);
  EXPECT_EQ(recording.db_csv, plain.db_csv);
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->jobs.size(), 1000u) << "2.5 h at ~25 jobs/min";
  EXPECT_EQ(trace->seed, config.seed);
}

TEST(TraceRoundTripTest, ReplayReproducesJournalAndDbBytesAtJobs128) {
  ExperimentConfig record_config = LoopConfig();
  record_config.trace.record = true;
  std::shared_ptr<const TraceData> trace;
  const LoopArtifacts reference = RunLoop(record_config, &trace);
  ASSERT_FALSE(reference.journal_csv.empty());
  ASSERT_NE(reference.db_csv.find("server/"), std::string::npos);
  ASSERT_NE(trace, nullptr);

  ExperimentConfig replay_config = LoopConfig();
  replay_config.trace.replay_data = ByteRoundTrip(*trace);
  const LoopArtifacts replayed = RunLoop(replay_config, nullptr);
  EXPECT_EQ(replayed.journal_csv, reference.journal_csv)
      << "replayed DecisionJournal CSV diverged";
  EXPECT_EQ(replayed.db_csv, reference.db_csv)
      << "replayed TimeSeriesDb contents diverged";
}

TEST(TraceRoundTripTest, ReplayWhileRecordingReproducesTheTrace) {
  // Record a replay of a recording: the second-generation trace must equal
  // the first (replay feeds the recorder the same submissions at the same
  // instants).
  ExperimentConfig record_config = LoopConfig();
  record_config.trace.record = true;
  std::shared_ptr<const TraceData> first;
  RunLoop(record_config, &first);
  ASSERT_NE(first, nullptr);

  ExperimentConfig rerecord_config = LoopConfig();
  rerecord_config.trace.replay_data = ByteRoundTrip(*first);
  rerecord_config.trace.record = true;
  std::shared_ptr<const TraceData> second;
  RunLoop(rerecord_config, &second);
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

// --- 4. Spill identity ----------------------------------------------------
//
// The cold tier is write-path-only during the closed loop (the controller
// and metrics read the monitor's caches, never the db), so enabling spill
// must not move a single byte of any artifact: the DecisionJournal and the
// stitched TimeSeriesDb CSV (ExportCsv reads hot + cold) must equal the
// RAM-only reference. And the restart contract: a
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
  const ScratchDir scratch("spill_identity");
  const std::string& dir = scratch.path();
  const LoopArtifacts reference = RunDefaultLoop();
  ASSERT_NE(reference.db_csv.find("server/"), std::string::npos);
  ExperimentConfig config = LoopConfig();
  config.storage.store_dir = dir;
  config.storage.hot_budget_samples = 48;  // Force heavy spilling.
  ControlledExperiment experiment(config);
  experiment.Run();
  ASSERT_NE(experiment.cold_store(), nullptr);
  EXPECT_GT(experiment.db().samples_spilled(), 0u)
      << "budget 48 over a 2.5 h run must spill, or this test is vacuous";
  EXPECT_EQ(experiment.controller()->journal().ToCsv(), reference.journal_csv)
      << "DecisionJournal CSV diverged under spill";
  std::ostringstream out;
  ExportCsv(experiment.db(), experiment.db().SeriesNames(), out);
  EXPECT_EQ(out.str(), reference.db_csv)
      << "stitched TimeSeriesDb CSV diverged under spill";
}

TEST(SpillJobsMatrixTest, OpenExistingReproducesColdBytesAfterRestart) {
  const ScratchDir scratch("spill_restart");
  const std::string dir = scratch.path() + "/store";
  constexpr size_t kHotBudget = 48;
  std::map<std::string, std::string> want;  // series -> cold-prefix bytes.
  {
    ExperimentConfig config = LoopConfig();
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
  // must emit the same ResultTable CSV as the synthetic source run.
  ExperimentConfig record_config = LoopConfig();
  record_config.trace.record = true;
  std::shared_ptr<const TraceData> trace;
  RunLoop(record_config, &trace);
  ASSERT_NE(trace, nullptr);
  std::shared_ptr<const TraceData> reparsed = ByteRoundTrip(*trace);

  // `replay` null runs the synthetic source.
  auto run_grid = [](std::shared_ptr<const TraceData> replay) {
    const std::vector<int> arms = {0};
    harness::RunnerOptions options;
    options.jobs = 1;
    auto grid = harness::RunGridOver(
        arms,
        [](int, size_t) { return harness::GridMeta{"arm", kSeed}; },
        [&replay](int, harness::RunContext& context) {
          ExperimentConfig config = LoopConfig();
          config.trace.replay_data = replay;
          ExperimentResult result = RunExperimentToResult(config);
          context.Metric("u_mean", result.experiment.u_mean);
          context.Metric("P_max", result.experiment.p_max);
          context.Metric("violations", result.experiment.violations);
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
  const std::string source = run_grid(nullptr);
  ASSERT_FALSE(source.empty());
  EXPECT_EQ(run_grid(reparsed), source)
      << "replay-arm ResultTable CSV diverged from the source run";
}

}  // namespace
}  // namespace ampere
