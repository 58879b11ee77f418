// Versioned binary workload-trace format (ampere.trace.v1) with
// record/replay.
//
// The one workload-trace format: a length-prefixed binary layout that
// captures exactly what the synthetic generator fed the scheduler — arrival instants at
// microsecond resolution, per-job demand, duration, row affinity, and the
// demand-class ("op mix") index — so a recorded run can be replayed
// byte-identically: same JobIds, same submission instants, same event-queue
// ordering, therefore the same ResultTable/DecisionJournal/TimeSeriesDb
// bytes.
//
// Layout (all integers little-endian):
//   magic[8]  = "AMPTRACE"
//   u32       version            (1 for ampere.trace.v1)
//   u32       header_len         (bytes of header payload that follow)
//   header payload:
//     u64     seed               (the recording run's master seed)
//     u64     job_count
//     u32     class_count        (the demand mix; may be 0)
//     class_count x { f64 cpu_cores, f64 memory_gb, f64 weight }
//   job_count records, each length-prefixed:
//     u32     record_len         (payload bytes; >= 38 in v1)
//     i64     submit_us          (non-decreasing across records)
//     i64     duration_us        (> 0)
//     f64     cpu_cores          (> 0, finite)
//     f64     memory_gb          (>= 0, finite)
//     i32     row_affinity       (-1 = schedule anywhere)
//     u16     class_id           (index into classes; 0xffff = custom)
//     ... record_len - 38 bytes a v1 reader skips (forward compatibility:
//         a v1.x writer may append fields without breaking old readers)
//   u32       end marker 0xA19E57E1 (truncation tripwire)
//
// Versioning rules (docs/traces.md): same-version readers must accept
// longer records (skip the tail); any layout change that old readers cannot
// skip bumps `version`, and readers reject unknown versions with
// TraceError::kVersionSkew rather than guessing.
//
// The parser NEVER throws or CHECK-fails on malformed input — a trace file
// is external data. Every failure mode maps to a structured TraceError with
// a byte offset, which the fuzz suite (tests/fuzz_invariants_test.cpp)
// pins under ASan/UBSan.

#ifndef SRC_WORKLOAD_TRACE_FORMAT_H_
#define SRC_WORKLOAD_TRACE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulation.h"
#include "src/workload/batch_workload.h"
#include "src/workload/job.h"

namespace ampere {

// One demand class of the recorded op mix (mirrors DemandProfile).
struct TraceClass {
  double cpu_cores = 0.0;
  double memory_gb = 0.0;
  double weight = 0.0;
};

// 0xffff in TraceJob::class_id: demand did not match any recorded class.
inline constexpr uint16_t kTraceCustomClass = 0xffff;

struct TraceJob {
  int64_t submit_us = 0;
  int64_t duration_us = 0;
  double cpu_cores = 0.0;
  double memory_gb = 0.0;
  int32_t row_affinity = -1;  // -1 = schedule anywhere.
  uint16_t class_id = kTraceCustomClass;
};

struct TraceData {
  uint64_t seed = 0;
  std::vector<TraceClass> classes;  // The op mix (may be empty).
  std::vector<TraceJob> jobs;       // Non-decreasing submit_us.
};

enum class TraceError : int {
  kNone = 0,
  kIo,             // File unreadable / unwritable.
  kBadMagic,       // Not an AMPTRACE file.
  kVersionSkew,    // Version this reader does not understand.
  kTruncated,      // File ends before the declared content.
  kCorruptLength,  // A length prefix is impossible (too small / absurd).
  kBadRecord,      // A field fails validation (range / NaN / class id).
  kOutOfOrder,     // submit_us decreases between records.
  kBadTrailer,     // End marker wrong, or trailing bytes after it.
};

const char* TraceErrorName(TraceError error);

// Structured parse outcome. `trace` is meaningful only when ok().
struct TraceParseResult {
  TraceError error = TraceError::kNone;
  std::string message;     // Human-readable, includes the byte offset.
  size_t byte_offset = 0;  // Where parsing stopped.
  TraceData trace;

  bool ok() const { return error == TraceError::kNone; }
};

// Serializes to the v1 byte layout above. Pure function of `trace`.
std::string SerializeTrace(const TraceData& trace);

// Parses bytes; never throws, never CHECK-fails (see TraceError).
TraceParseResult ParseTrace(std::string_view bytes);

// File wrappers. WriteTraceFile returns false (and logs) on I/O failure;
// ReadTraceFile reports unreadable files as TraceError::kIo.
bool WriteTraceFile(const std::string& path, const TraceData& trace);
TraceParseResult ReadTraceFile(const std::string& path);

// --- Recording -----------------------------------------------------------

// JobSink decorator: forwards every job unchanged to `next` while logging
// it into a TraceData. Interposed between the generator and the scheduler
// it is invisible to the run (same JobSpecs, same instants), so the
// recording run IS the run being captured.
class TraceRecorder : public JobSink {
 public:
  // `sim` and `next` must outlive the recorder.
  TraceRecorder(Simulation* sim, JobSink* next);

  void Submit(const JobSpec& job) override;

  void set_seed(uint64_t seed) { trace_.seed = seed; }
  // Records the op mix in the header and enables class_id tagging. Pass the
  // effective demand profiles (empty = BatchWorkload's default mix).
  void SetClasses(const std::vector<DemandProfile>& demands);

  uint64_t jobs_recorded() const { return trace_.jobs.size(); }
  const TraceData& trace() const { return trace_; }

 private:
  Simulation* sim_;
  JobSink* next_;
  TraceData trace_;
};

// Materializes `duration` of the synthetic workload as a trace, for
// sharing or for replay: a BatchWorkload with `params` and `rng` runs on a
// private Simulation through a TraceRecorder into a sink that discards
// every job. The trace therefore holds exactly the arrivals (instants,
// demands, durations, row affinity, op-mix classes) a run driven by the
// same generator submits in [0, duration).
TraceData SampleTrace(const BatchWorkloadParams& params, SimTime duration,
                      Rng rng);

// --- Replay --------------------------------------------------------------

// Drop-in arrival source that replays a trace through a JobSink. Mirrors
// BatchWorkload's event pattern exactly — one periodic per-minute batch
// task that allocates JobIds at the minute boundary and queues each
// submission at its recorded instant on an ArrivalStream — so a replayed
// run's event seq numbers (and thus all tie-breaking) match the recording
// run's.
class TraceArrivalProcess {
 public:
  // `sim`, `sink`, and `ids` must outlive the process. `trace` must have
  // non-decreasing submit_us (guaranteed by ParseTrace / TraceRecorder).
  TraceArrivalProcess(std::shared_ptr<const TraceData> trace,
                      Simulation* sim, JobSink* sink, JobIdAllocator* ids);

  // Begins replaying at `at`; records before `at` are an error.
  void Start(SimTime at);

  size_t jobs_total() const { return trace_->jobs.size(); }
  uint64_t jobs_submitted() const { return stream_.jobs_submitted(); }

 private:
  void SubmitMinute(SimTime minute_start);

  std::shared_ptr<const TraceData> trace_;
  Simulation* sim_;
  JobIdAllocator* ids_;
  ArrivalStream stream_;
  size_t cursor_ = 0;
  bool started_ = false;
};

// --- Adversarial trace generation ----------------------------------------

// Seeded generators for the input sequences the synthetic distribution
// never produces — the cases an online controller is weakest against.
struct AdversarialTraceParams {
  enum class Kind : int {
    kBursts = 0,        // Minute-scale rate spikes (burst_factor x).
    kSynchronized = 1,  // Thundering herds: sync_batch jobs at one instant.
    kHeavyTail = 2,     // Pareto durations: a few jobs pin servers for hours.
  };
  Kind kind = Kind::kBursts;
  uint64_t seed = 1;
  SimTime duration = SimTime::Hours(4);
  double base_rate_per_min = 100.0;
  // kBursts: with burst_prob per minute the rate is multiplied.
  double burst_prob = 0.08;
  double burst_factor = 6.0;
  // kSynchronized: every sync_period, sync_batch jobs arrive at the same
  // microsecond (cron-style synchronized clients).
  SimTime sync_period = SimTime::Minutes(10);
  int sync_batch = 256;
  // kHeavyTail: Pareto(alpha) durations scaled to mean_minutes, clamped to
  // max_duration_minutes.
  double heavy_tail_alpha = 1.3;
  double mean_minutes = 12.0;
  double max_duration_minutes = 600.0;
  // Demand mix; empty = BatchWorkload's default mix.
  std::vector<DemandProfile> demands;
};

TraceData GenerateAdversarialTrace(const AdversarialTraceParams& params);

}  // namespace ampere

#endif  // SRC_WORKLOAD_TRACE_FORMAT_H_
