// Randomized-operation invariant tests ("fuzz" style, deterministic seeds).
//
// Each test drives a component with a long random sequence of operations
// and checks global invariants after every step (or batch). These are the
// guards against state-accounting drift: power aggregates, resource
// accounting, frozen/capped bookkeeping, and event-queue consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/controller.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/power_monitor.h"
#include "src/workload/batch_workload.h"
#include "src/workload/trace_format.h"

namespace ampere {
namespace {

TopologyConfig FuzzTopology(bool capping, CappingMode mode) {
  TopologyConfig config;
  config.num_rows = 3;
  config.racks_per_row = 2;
  config.servers_per_rack = 6;  // 36 servers.
  config.server_capacity = Resources{16.0, 64.0};
  config.capping_enabled = capping;
  config.capping_mode = mode;
  if (capping) {
    config.row_budget_watts = 12 * 220.0;  // Tight enough to engage.
  }
  return config;
}

// Recomputed-from-scratch vs incrementally-maintained state must agree.
void CheckPowerAggregates(const DataCenter& dc) {
  double total = 0.0;
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    double row_sum = 0.0;
    for (ServerId id : dc.servers_in_row(RowId(r))) {
      row_sum += dc.server_power_watts(id);
    }
    ASSERT_NEAR(dc.row_power_watts(RowId(r)), row_sum, 1e-6)
        << "row " << r << " aggregate drifted";
    total += row_sum;
  }
  ASSERT_NEAR(dc.total_power_watts(), total, 1e-6);
  for (int32_t k = 0; k < dc.num_racks(); ++k) {
    double rack_sum = 0.0;
    for (ServerId id : dc.servers_in_rack(RackId(k))) {
      rack_sum += dc.server_power_watts(id);
    }
    ASSERT_NEAR(dc.rack_power_watts(RackId(k)), rack_sum, 1e-6);
  }
}

void CheckCappedCounts(const DataCenter& dc) {
  for (int32_t r = 0; r < dc.num_rows(); ++r) {
    size_t capped = 0;
    for (ServerId id : dc.servers_in_row(RowId(r))) {
      if (dc.IsServerCapped(id)) {
        ++capped;
      }
    }
    double expected = static_cast<double>(capped) /
                      static_cast<double>(dc.servers_in_row(RowId(r)).size());
    ASSERT_NEAR(dc.FractionOfServersCapped(RowId(r)), expected, 1e-12);
  }
}

class DataCenterFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(DataCenterFuzzTest, AggregatesNeverDrift) {
  auto [seed, mode_int] = GetParam();
  auto mode = static_cast<CappingMode>(mode_int);
  Rng rng(seed);
  Simulation sim;
  DataCenter dc(FuzzTopology(/*capping=*/true, mode), &sim);
  int32_t next_job = 0;

  for (int step = 0; step < 3000; ++step) {
    double op = rng.NextDouble();
    ServerId target(static_cast<int32_t>(rng.UniformInt(0, 35)));
    if (op < 0.55) {
      // Random placement attempt (may fail; that's fine).
      TaskSpec spec{JobId(next_job++),
                    Resources{static_cast<double>(rng.UniformInt(1, 6)),
                              static_cast<double>(rng.UniformInt(1, 16))},
                    SimTime::Minutes(rng.Uniform(0.2, 30.0))};
      dc.PlaceTask(target, spec);
    } else if (op < 0.7) {
      dc.SetFrozen(target, rng.Bernoulli(0.5));
    } else if (op < 0.75) {
      dc.SetRowCappingBudget(
          RowId(static_cast<int32_t>(rng.UniformInt(0, 2))),
          rng.Uniform(12 * 180.0, 12 * 260.0));
    } else {
      // Advance time; completions fire.
      sim.RunUntil(sim.now() + SimTime::Seconds(rng.Uniform(1.0, 120.0)));
    }
    if (step % 97 == 0) {
      CheckPowerAggregates(dc);
      CheckCappedCounts(dc);
    }
  }
  // Drain everything; power must return to the idle floor.
  sim.RunUntil(sim.now() + SimTime::Hours(2));
  CheckPowerAggregates(dc);
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    EXPECT_EQ(dc.server(ServerId(s)).num_tasks(), 0u);
    EXPECT_DOUBLE_EQ(dc.server(ServerId(s)).utilization(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DataCenterFuzzTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0, 1)));  // kRowUniform, kPerServer.

TEST(SchedulerFuzzTest, ResourceAccountingUnderChurn) {
  Rng rng(77);
  Simulation sim;
  DataCenter dc(FuzzTopology(false, CappingMode::kRowUniform), &sim);
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  int32_t next_job = 0;

  for (int step = 0; step < 5000; ++step) {
    double op = rng.NextDouble();
    if (op < 0.6) {
      JobSpec job;
      job.id = JobId(next_job++);
      job.demand = Resources{static_cast<double>(rng.UniformInt(1, 8)),
                             static_cast<double>(rng.UniformInt(1, 24))};
      job.duration = SimTime::Minutes(rng.Uniform(0.5, 20.0));
      if (rng.Bernoulli(0.2)) {
        job.row_affinity = RowId(static_cast<int32_t>(rng.UniformInt(0, 2)));
      }
      scheduler.Submit(job);
    } else if (op < 0.8) {
      ServerId target(static_cast<int32_t>(rng.UniformInt(0, 35)));
      if (rng.Bernoulli(0.5)) {
        scheduler.Freeze(target);
      } else {
        scheduler.Unfreeze(target);
      }
    } else {
      sim.RunUntil(sim.now() + SimTime::Seconds(rng.Uniform(1.0, 180.0)));
    }
    if (step % 203 == 0) {
      // Allocation never exceeds capacity, never goes negative.
      for (int32_t s = 0; s < dc.num_servers(); ++s) {
        const Server& server = dc.server(ServerId(s));
        ASSERT_TRUE(server.capacity().Fits(server.allocated()));
        ASSERT_TRUE(server.allocated().NonNegative());
      }
    }
  }
  // Conservation: everything submitted is placed, queued, or completed.
  sim.RunUntil(sim.now() + SimTime::Hours(3));
  // Unfreeze all so the queue can drain fully.
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    scheduler.Unfreeze(ServerId(s));
  }
  sim.RunUntil(sim.now() + SimTime::Hours(3));
  EXPECT_EQ(scheduler.jobs_placed(),
            scheduler.jobs_submitted() - scheduler.queue_length());
  EXPECT_EQ(scheduler.jobs_completed(), scheduler.jobs_placed());
}

TEST(ClosedLoopFuzzTest, ControllerNeverBreaksSchedulerInvariants) {
  // A controller with absurd parameters (huge margins, tiny kr, random
  // selection) must still never place jobs on frozen servers or corrupt
  // the frozen-set bookkeeping.
  Rng rng(99);
  Simulation sim;
  DataCenter dc(FuzzTopology(false, CappingMode::kRowUniform), &sim);
  TimeSeriesDb db;
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, rng.Fork(2));
  std::vector<ServerId> all;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    all.push_back(ServerId(s));
  }
  monitor.RegisterGroup("all", all);

  JobIdAllocator ids;
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 40.0;
  BatchWorkload workload(params, &sim, &scheduler, &ids, rng.Fork(3));

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(0.002);  // Tiny: u saturates often.
  config.et = EtEstimator::Constant(0.15);   // Huge margin.
  config.selection = FreezeSelection::kRandom;
  AmpereController controller(&scheduler, &monitor, config);
  controller.AddDomain({"all", all, 36 * 215.0});

  bool frozen_placement = false;
  scheduler.SetPlacementListener([&](const JobSpec&, ServerId server) {
    if (dc.server(server).frozen()) {
      frozen_placement = true;
    }
  });

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  controller.Start(&sim, SimTime::Minutes(1) + SimTime::Seconds(1));
  sim.RunUntil(SimTime::Hours(6));

  EXPECT_FALSE(frozen_placement);
  // The controller's cached frozen set matches the scheduler's flags.
  size_t flagged = 0;
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    if (dc.server(ServerId(s)).frozen()) {
      ++flagged;
    }
  }
  EXPECT_EQ(controller.frozen_count(0), flagged);
}

// --- Candidate-list free-capacity index ---------------------------------
//
// DataCenter keeps a per-server free-capacity array, written at every
// mutation site, plus a per-axis max tree over it that catches up when its
// root is read. Against brute force: after every random step each entry is
// bit-for-bit SchedulableState() ? Available() : −inf, and whenever the
// root is read it is the per-axis maximum of the entries.

void CheckFreeCapacityIndex(DataCenter& dc, bool read_root) {
  const double neg_inf = -std::numeric_limits<double>::infinity();
  const std::span<const Resources> free = dc.schedulable_free();
  ASSERT_EQ(free.size(), static_cast<size_t>(dc.num_servers()));
  Resources max{neg_inf, neg_inf};
  for (int32_t s = 0; s < dc.num_servers(); ++s) {
    const Server& server = dc.server(ServerId(s));
    const Resources want = server.SchedulableState()
                               ? server.Available()
                               : Resources{neg_inf, neg_inf};
    const Resources& got = free[static_cast<size_t>(s)];
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(Resources)), 0)
        << "server " << s << ": index {" << got.cpu_cores << ", "
        << got.memory_gb << "} vs {" << want.cpu_cores << ", "
        << want.memory_gb << "}";
    max.cpu_cores = std::max(max.cpu_cores, want.cpu_cores);
    max.memory_gb = std::max(max.memory_gb, want.memory_gb);
  }
  if (!read_root) {
    return;
  }
  const Resources& root = dc.MaxSchedulableFree();
  ASSERT_EQ(std::memcmp(&root, &max, sizeof(Resources)), 0)
      << "root {" << root.cpu_cores << ", " << root.memory_gb
      << "} vs brute force {" << max.cpu_cores << ", " << max.memory_gb
      << "}";
  // With the tree current, the first fit from every origin is the linear
  // circular scan's, for demands that fit often, rarely and exactly.
  const size_t n = free.size();
  for (const Resources& demand :
       {Resources{1.0, 2.0}, Resources{4.0, 8.0}, Resources{16.0, 64.0}}) {
    for (size_t origin = 0; origin < n; ++origin) {
      int32_t want = -1;
      for (size_t k = 0; k < n; ++k) {
        if (free[(origin + k) % n].Fits(demand)) {
          want = static_cast<int32_t>((origin + k) % n);
          break;
        }
      }
      ASSERT_EQ(dc.FirstSchedulableFit(origin, demand).value(), want)
          << "origin " << origin << ", demand {" << demand.cpu_cores << ", "
          << demand.memory_gb << "}";
    }
  }
}

TEST(FreeCapacityIndexFuzzTest, EntriesAndRootMatchBruteForce) {
  // One server (one block, itself the root), 30 (two blocks, the second
  // partly padding) and 102 (seven blocks under a tree of eight).
  for (int servers_per_rack : {1, 5, 17}) {
    TopologyConfig topology;
    topology.num_rows = servers_per_rack == 1 ? 1 : 3;
    topology.racks_per_row = servers_per_rack == 1 ? 1 : 2;
    topology.servers_per_rack = servers_per_rack;
    topology.server_capacity = Resources{16.0, 64.0};
    Rng rng(4242 + static_cast<uint64_t>(servers_per_rack));
    Simulation sim;
    DataCenter dc(topology, &sim);
    const int64_t n = dc.num_servers();
    CheckFreeCapacityIndex(dc, /*read_root=*/true);
    int32_t next_job = 0;
    for (int step = 0; step < 4000; ++step) {
      const double op = rng.NextDouble();
      const ServerId target(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
      if (op < 0.45) {
        // May fail on a full or asleep server; the index must not move then.
        TaskSpec spec{JobId(next_job++),
                      Resources{rng.Uniform(0.25, 6.0), rng.Uniform(0.5, 24.0)},
                      SimTime::Minutes(rng.Uniform(0.2, 20.0))};
        dc.PlaceTask(target, spec);
      } else if (op < 0.6) {
        dc.SetFrozen(target, rng.Bernoulli(0.5));
      } else if (op < 0.68) {
        dc.SetReserved(target, rng.Bernoulli(0.3));
      } else if (op < 0.74) {
        if (dc.server(target).num_tasks() == 0) {
          dc.SleepServer(target);
        }
      } else if (op < 0.82) {
        dc.WakeServer(target);
      } else {
        // Completions and wake-ups fire.
        sim.RunUntil(sim.now() + SimTime::Seconds(rng.Uniform(1.0, 90.0)));
      }
      // The root is read after every step for the first half (the tree
      // catches up block by block) and every 97th step after (most blocks
      // change between reads).
      CheckFreeCapacityIndex(dc, step < 2000 || step % 97 == 0);
      if (HasFatalFailure()) {
        FAIL() << "index diverged at step " << step << " with " << n
               << " servers";
      }
    }
  }
}

// --- Trace parser: negative paths and byte-level fuzzing ------------------
//
// The ampere.trace.v1 parser's contract: any byte string — truncated,
// bit-flipped, version-skewed, or outright garbage — yields a structured
// TraceParseResult (distinct error code, message, byte offset). It never
// crashes, never throws, never CHECK-fails. CI runs these under
// ASan/UBSan, where an overrun read would be loud.

TraceData SmallTrace() {
  TraceData trace;
  trace.seed = 77;
  trace.classes.push_back(TraceClass{2.0, 4.0, 1.0});
  for (int i = 0; i < 3; ++i) {
    TraceJob job;
    job.submit_us = 1000000LL * (i + 1);
    job.duration_us = 60000000LL;
    job.cpu_cores = 2.0;
    job.memory_gb = 4.0;
    job.class_id = 0;
    trace.jobs.push_back(job);
  }
  return trace;
}

// Little-endian writers for hand-crafting wire bytes in tests.
void TestPut16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}
void TestPut32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void TestPut64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void TestPutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  TestPut64(out, bits);
}

// Overwrites `size` bytes at `offset` with the little-endian value.
void Patch(std::string* bytes, size_t offset, uint64_t value, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

TEST(TraceParseTest, ValidBytesRoundTrip) {
  const TraceData trace = SmallTrace();
  TraceParseResult parsed = ParseTrace(SerializeTrace(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.message;
  EXPECT_EQ(parsed.error, TraceError::kNone);
  EXPECT_EQ(parsed.trace.seed, 77u);
  ASSERT_EQ(parsed.trace.jobs.size(), 3u);
  EXPECT_EQ(parsed.trace.jobs[2].submit_us, 3000000);
  ASSERT_EQ(parsed.trace.classes.size(), 1u);
  EXPECT_EQ(parsed.trace.classes[0].memory_gb, 4.0);
}

TEST(TraceParseTest, EmptyAndShortInputsAreTruncated) {
  for (const std::string& input : {std::string(), std::string("AMP"),
                                  std::string("AMPTRACE"),
                                  std::string("AMPTRACE\x01\x00", 10)}) {
    TraceParseResult parsed = ParseTrace(input);
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error, TraceError::kTruncated) << parsed.message;
    EXPECT_FALSE(parsed.message.empty());
  }
}

TEST(TraceParseTest, MissingFileIsAnIoError) {
  TraceParseResult parsed =
      ReadTraceFile("/nonexistent/ampere-trace-test.trace");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error, TraceError::kIo);
  EXPECT_FALSE(parsed.message.empty());
}

TEST(TraceParseTest, BadMagicIsStructured) {
  std::string bytes = SerializeTrace(SmallTrace());
  bytes[0] = 'X';
  TraceParseResult parsed = ParseTrace(bytes);
  EXPECT_EQ(parsed.error, TraceError::kBadMagic);
  EXPECT_EQ(parsed.byte_offset, 0u);
}

TEST(TraceParseTest, VersionSkewIsStructured) {
  std::string bytes = SerializeTrace(SmallTrace());
  Patch(&bytes, 8, 2, 4);  // Version field: a v2 file under a v1 reader.
  TraceParseResult parsed = ParseTrace(bytes);
  EXPECT_EQ(parsed.error, TraceError::kVersionSkew);
  EXPECT_NE(parsed.message.find("version 2"), std::string::npos)
      << parsed.message;
}

TEST(TraceParseTest, CorruptLengthPrefixesAreStructured) {
  const std::string valid = SerializeTrace(SmallTrace());
  // Header length below the fixed minimum (20 bytes).
  std::string bytes = valid;
  Patch(&bytes, 12, 3, 4);
  EXPECT_EQ(ParseTrace(bytes).error, TraceError::kCorruptLength);
  // Impossible job count (larger than the file could hold).
  bytes = valid;
  Patch(&bytes, 24, 0x00ffffffffffffffULL, 8);
  EXPECT_EQ(ParseTrace(bytes).error, TraceError::kCorruptLength);
  // Absurd class count.
  bytes = valid;
  Patch(&bytes, 32, 100000, 4);
  EXPECT_EQ(ParseTrace(bytes).error, TraceError::kCorruptLength);
  // First job record: zero and oversized length prefixes. The record area
  // starts after the 16-byte preamble + 20-byte fixed header + one class.
  const size_t record_at = 16 + 20 + 24;
  bytes = valid;
  Patch(&bytes, record_at, 0, 4);
  TraceParseResult zero_len = ParseTrace(bytes);
  EXPECT_EQ(zero_len.error, TraceError::kCorruptLength);
  EXPECT_EQ(zero_len.byte_offset, record_at);
  bytes = valid;
  Patch(&bytes, record_at, 100000, 4);
  EXPECT_EQ(ParseTrace(bytes).error, TraceError::kCorruptLength);
}

TEST(TraceParseTest, TruncationAtEveryOffsetNeverCrashes) {
  const std::string bytes = SerializeTrace(SmallTrace());
  for (size_t len = 0; len < bytes.size(); ++len) {
    TraceParseResult parsed = ParseTrace(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_NE(parsed.error, TraceError::kNone);
    EXPECT_FALSE(parsed.message.empty());
    EXPECT_LE(parsed.byte_offset, len);
  }
  EXPECT_TRUE(ParseTrace(bytes).ok());
}

TEST(TraceParseTest, OutOfOrderTimestampsAreStructured) {
  TraceData trace = SmallTrace();
  std::swap(trace.jobs[0], trace.jobs[2]);  // 3 s, 2 s, 1 s.
  TraceParseResult parsed = ParseTrace(SerializeTrace(trace));
  EXPECT_EQ(parsed.error, TraceError::kOutOfOrder);
  EXPECT_NE(parsed.message.find("out-of-order"), std::string::npos);
}

TEST(TraceParseTest, BadRecordFieldsAreStructured) {
  // Each mutation invalidates one field of an otherwise-valid trace.
  auto expect_bad = [](TraceData trace) {
    TraceParseResult parsed = ParseTrace(SerializeTrace(trace));
    EXPECT_EQ(parsed.error, TraceError::kBadRecord) << parsed.message;
  };
  TraceData trace = SmallTrace();
  trace.jobs[1].duration_us = 0;
  expect_bad(trace);
  trace = SmallTrace();
  trace.jobs[1].submit_us = -5;
  expect_bad(trace);
  trace = SmallTrace();
  trace.jobs[1].cpu_cores = std::numeric_limits<double>::quiet_NaN();
  expect_bad(trace);
  trace = SmallTrace();
  trace.jobs[1].class_id = 9;  // Out of range and not kTraceCustomClass.
  expect_bad(trace);
  trace = SmallTrace();
  trace.jobs[1].row_affinity = -7;
  expect_bad(trace);
  trace = SmallTrace();
  trace.classes[0].weight = -1.0;
  expect_bad(trace);
}

TEST(TraceParseTest, TrailerProblemsAreStructured) {
  const std::string valid = SerializeTrace(SmallTrace());
  std::string bytes = valid;
  Patch(&bytes, bytes.size() - 4, 0xdeadbeef, 4);  // Wrong end marker.
  EXPECT_EQ(ParseTrace(bytes).error, TraceError::kBadTrailer);
  bytes = valid + std::string("junk");  // Bytes after the end marker.
  EXPECT_EQ(ParseTrace(bytes).error, TraceError::kBadTrailer);
}

TEST(TraceParseTest, ForwardCompatExtensionBytesAreSkipped) {
  // A v1.x writer may grow the header and records; a v1 reader must skip
  // the extra bytes using the declared lengths. Hand-craft such a file.
  std::string bytes;
  bytes.append("AMPTRACE");
  TestPut32(&bytes, 1);       // Version.
  TestPut32(&bytes, 20 + 24 + 8);  // Header: fixed + 1 class + 8 extra bytes.
  TestPut64(&bytes, 123);     // Seed.
  TestPut64(&bytes, 1);       // Job count.
  TestPut32(&bytes, 1);       // Class count.
  TestPutF64(&bytes, 2.0);    // Class: cpu.
  TestPutF64(&bytes, 4.0);    // Class: mem.
  TestPutF64(&bytes, 1.0);    // Class: weight.
  TestPut64(&bytes, 0);       // Unknown header extension.
  TestPut32(&bytes, 38 + 6);  // Record length: v1 payload + 6 extra bytes.
  TestPut64(&bytes, 5000000); // submit_us.
  TestPut64(&bytes, 60000000);  // duration_us.
  TestPutF64(&bytes, 2.0);    // cpu.
  TestPutF64(&bytes, 4.0);    // mem.
  TestPut32(&bytes, static_cast<uint32_t>(-1));  // No row affinity.
  TestPut16(&bytes, 0);       // class_id.
  bytes.append(6, '\0');      // Unknown record extension.
  TestPut32(&bytes, 0xA19E57E1u);  // End marker.

  TraceParseResult parsed = ParseTrace(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message;
  EXPECT_EQ(parsed.trace.seed, 123u);
  ASSERT_EQ(parsed.trace.jobs.size(), 1u);
  EXPECT_EQ(parsed.trace.jobs[0].submit_us, 5000000);
  EXPECT_EQ(parsed.trace.jobs[0].row_affinity, -1);
}

TEST(TraceParseTest, RandomByteMutationSweepNeverCrashes) {
  // Deterministic fuzz: thousands of single-to-few-byte corruptions of a
  // valid trace, plus pure-garbage buffers. Every outcome must be either a
  // clean parse (the mutation hit a don't-care byte) or a structured error;
  // ASan/UBSan guard the memory-safety half of the claim.
  const std::string valid = SerializeTrace(SmallTrace());
  Rng rng(20160808);
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::string bytes = valid;
    const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t at = rng.NextU64() % bytes.size();
      bytes[at] = static_cast<char>(rng.NextU64());
    }
    TraceParseResult parsed = ParseTrace(bytes);
    if (!parsed.ok()) {
      EXPECT_NE(parsed.error, TraceError::kNone);
      EXPECT_FALSE(parsed.message.empty());
      EXPECT_LE(parsed.byte_offset, bytes.size());
    }
  }
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string garbage(rng.NextU64() % 256, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextU64());
    }
    TraceParseResult parsed = ParseTrace(garbage);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.message.empty());
    }
  }
}

}  // namespace
}  // namespace ampere
