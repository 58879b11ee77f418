// Determinism contract: a run's artifacts are a pure function of its
// config. These tests pin it at three levels:
//
//   1. Counter-based noise streams — a variate is a pure function of
//      (seed, stream, tick); the two-stage key derivation (hoisted TickBase
//      + per-stream StreamKey) matches the one-shot Key; exact pinned
//      values catch silent mixer changes; the table-interpolated
//      Box-Muller stays within its documented bound of the exact pair.
//   2. Batched kernels — SumSequential is bit-identical to the
//      per-element sum it stands in for, and the exact resummation equals
//      the Exact* sums over every rack-span tail length.
//   3. Trace round trip — recording is a pass-through, and replaying the
//      reparsed trace reproduces the controller DecisionJournal CSV and the
//      entire TimeSeriesDb (per-server series included) byte for byte.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numbers>
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
#include "src/harness/grid.h"
#include "src/harness/runner.h"
#include "src/telemetry/csv_export.h"
#include "src/telemetry/power_monitor.h"
#include "src/telemetry/timeseries_db.h"

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

// The table-interpolated Box-Muller reads the exact pair's words, and stays
// within its documented bound of the exact pair in both lanes: over random
// keys and over the edge words (u1 = 1 and r = 0, u1 = 2^-53 and the
// largest r, u2 = 0, u2 just below 1, and u1 mantissas and u2 words exactly
// on table knots, where the interpolation weight is 0).
TEST(CounterRngTest, ApproxNormalReadsTheExactPairsWords) {
  const counter_rng::ApproxNormal& approx = counter_rng::ApproxNormal::Get();
  Rng rng(kSeed);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t key = rng.NextU64();
    const uint64_t b = counter_rng::SecondWord(key);
    const auto exact = counter_rng::StandardNormalPair(key);
    const auto exact_words = counter_rng::NormalPairFromWords(key, b);
    ASSERT_EQ(exact.z0, exact_words.z0);
    ASSERT_EQ(exact.z1, exact_words.z1);
    const auto fast = approx.Pair(key);
    const auto fast_words = approx.PairFromWords(key, b);
    ASSERT_EQ(fast.z0, fast_words.z0);
    ASSERT_EQ(fast.z1, fast_words.z1);
  }
}

TEST(CounterRngTest, ApproxNormalStaysWithinItsBound) {
  // The documented derivation of the bound, re-evaluated.
  const double n = static_cast<double>(counter_rng::ApproxNormal::kTableSize);
  const double d_ln = 1.0 / (8.0 * n * n);
  const double d_cos = std::pow(2.0 * std::numbers::pi / n, 2.0) / 8.0;
  const double r_max = std::sqrt(-2.0 * std::log(0x1.0p-53));
  EXPECT_LE(std::sqrt(2.0 * d_ln) * (1.0 + d_cos) + r_max * d_cos,
            counter_rng::kApproxNormalErrorBound);

  const counter_rng::ApproxNormal& approx = counter_rng::ApproxNormal::Get();
  double worst = 0.0;
  auto check = [&](uint64_t a, uint64_t b) {
    const auto exact = counter_rng::NormalPairFromWords(a, b);
    const auto fast = approx.PairFromWords(a, b);
    const double error =
        std::max(std::abs(fast.z0 - exact.z0), std::abs(fast.z1 - exact.z1));
    worst = std::max(worst, error);
    ASSERT_LE(error, counter_rng::kApproxNormalErrorBound)
        << std::hex << "a=0x" << a << " b=0x" << b;
  };
  // u1 = 1 - (a >> 11) 2^-53 and u2 = (b >> 11) 2^-53.
  std::vector<uint64_t> a_edges = {
      0,                        // u1 = 1: r = 0.
      ~uint64_t{0},             // u1 = 2^-53: the largest r.
      uint64_t{1} << 11,        // u1 just below 1.
      uint64_t{1} << 63,        // u1 = 1/2.
  };
  // u1 = 2^e (1 + j/N) exactly: a knot of the ln(1 + f) table.
  const uint64_t table = counter_rng::ApproxNormal::kTableSize;
  for (int e : {-1, -2, -11, -30, -42}) {
    for (uint64_t j : {uint64_t{0}, uint64_t{1}, table / 2, table - 1}) {
      // 2^53 (1 - u1) = 2^53 - 2^(53 + e) (N + j) / N, an integer.
      const int shift = 53 + e - counter_rng::ApproxNormal::kTableBits;
      const uint64_t m = (uint64_t{1} << 53) - ((table + j) << shift);
      a_edges.push_back(m << 11);
    }
  }
  std::vector<uint64_t> b_edges = {
      0,                        // u2 = 0.
      ~uint64_t{0},             // u2 just below 1.
      uint64_t{1} << 11,        // u2 = 2^-53.
  };
  // u2 = k / N exactly: a knot of the angle table.
  for (uint64_t k : {uint64_t{1}, table / 4, table / 2, table - 1}) {
    b_edges.push_back(k << (64 - counter_rng::ApproxNormal::kTableBits));
    // Just below and just above the knot.
    b_edges.push_back((k << (64 - counter_rng::ApproxNormal::kTableBits)) -
                      (uint64_t{1} << 11));
    b_edges.push_back((k << (64 - counter_rng::ApproxNormal::kTableBits)) +
                      (uint64_t{1} << 11));
  }
  Rng rng(kSeed);
  for (uint64_t a : a_edges) {
    for (uint64_t b : b_edges) {
      check(a, b);
    }
    for (int i = 0; i < 200; ++i) {
      check(a, rng.NextU64());
    }
  }
  for (uint64_t b : b_edges) {
    for (int i = 0; i < 200; ++i) {
      check(rng.NextU64(), b);
    }
  }
  for (int i = 0; i < 200000; ++i) {
    const uint64_t key = rng.NextU64();
    check(key, counter_rng::SecondWord(key));
  }
  // The bound is not vacuous: the interpolation really errs.
  EXPECT_GT(worst, 0.0);
}

// --- 2. Batched kernels vs their scalar twins ----------------------------
//
// SumSequential must keep the strict left-to-right order of the per-element
// sums it replaced. Any divergence silently invalidates the byte-identity
// contract, so these tests pin the identity directly.

TEST(BatchedKernelIdentityTest, SumKernelsMatchHandRolledOrders) {
  // The reduction is pinned against a hand-rolled accumulation of its
  // documented association, so a "smart" rewrite cannot sneak in.
  Rng rng(kSeed);
  std::vector<double> x(423);
  for (double& v : x) {
    v = rng.Uniform(80.0, 260.0);
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{42}, size_t{417}, size_t{420}, size_t{423}}) {
    double expected = 0.0;
    for (size_t i = 0; i < n; ++i) {
      expected += x[i];
    }
    EXPECT_EQ(span_kernels::SumSequential(x.data(), n), expected)
        << "n=" << n;
  }
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

TEST(TraceRoundTripTest, ReplayReproducesJournalAndDbBytes) {
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
    auto grid = harness::RunGrid(
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
