#include "src/workload/trace_format.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/workload/duration_model.h"

namespace ampere {
namespace {

constexpr char kMagic[8] = {'A', 'M', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kEndMarker = 0xA19E57E1u;
// Fixed header payload: seed + job_count + class_count.
constexpr size_t kHeaderFixedBytes = 8 + 8 + 4;
constexpr size_t kClassBytes = 3 * 8;
// v1 job record payload: submit + duration + cpu + mem + row + class.
constexpr size_t kJobRecordBytes = 8 + 8 + 8 + 8 + 4 + 2;
// A length prefix beyond this is corruption, not a future extension: even
// generous v1.x record growth stays far below it.
constexpr uint32_t kMaxRecordBytes = 4096;
constexpr uint32_t kMaxClasses = 4096;

// --- Little-endian encoding (explicit, so traces are host-independent) ---

void Put16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void Put32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Put64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  Put64(out, std::bit_cast<uint64_t>(v));
}

void PutI64(std::string* out, int64_t v) {
  Put64(out, static_cast<uint64_t>(v));
}

// Bounds-checked cursor over the input bytes. Read* return false instead of
// overrunning; the caller maps that to a structured error.
struct Reader {
  std::string_view bytes;
  size_t pos = 0;

  size_t remaining() const { return bytes.size() - pos; }

  bool Read16(uint16_t* v) {
    if (remaining() < 2) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
    *v = static_cast<uint16_t>(p[0] | (p[1] << 8));
    pos += 2;
    return true;
  }

  bool Read32(uint32_t* v) {
    if (remaining() < 4) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
    *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    pos += 4;
    return true;
  }

  bool Read64(uint64_t* v) {
    if (remaining() < 8) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    *v = out;
    pos += 8;
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!Read64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t bits = 0;
    if (!Read64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }
};

TraceParseResult Fail(TraceError error, size_t offset, std::string message) {
  TraceParseResult result;
  result.error = error;
  result.byte_offset = offset;
  result.message = std::string(TraceErrorName(error)) + " at byte " +
                   std::to_string(offset) + ": " + std::move(message);
  return result;
}

std::vector<DemandProfile> EffectiveDemands(
    const std::vector<DemandProfile>& demands) {
  if (!demands.empty()) {
    return demands;
  }
  // BatchWorkload's default mix (kept in sync with its constructor).
  return {{Resources{1.0, 2.0}, 0.4},
          {Resources{2.0, 4.0}, 0.4},
          {Resources{4.0, 8.0}, 0.2}};
}

}  // namespace

const char* TraceErrorName(TraceError error) {
  switch (error) {
    case TraceError::kNone: return "ok";
    case TraceError::kIo: return "io-error";
    case TraceError::kBadMagic: return "bad-magic";
    case TraceError::kVersionSkew: return "version-skew";
    case TraceError::kTruncated: return "truncated";
    case TraceError::kCorruptLength: return "corrupt-length";
    case TraceError::kBadRecord: return "bad-record";
    case TraceError::kOutOfOrder: return "out-of-order";
    case TraceError::kBadTrailer: return "bad-trailer";
  }
  return "unknown";
}

std::string SerializeTrace(const TraceData& trace) {
  std::string out;
  out.reserve(24 + kHeaderFixedBytes + trace.classes.size() * kClassBytes +
              trace.jobs.size() * (4 + kJobRecordBytes) + 4);
  out.append(kMagic, sizeof(kMagic));
  Put32(&out, kVersion);
  Put32(&out, static_cast<uint32_t>(kHeaderFixedBytes +
                                    trace.classes.size() * kClassBytes));
  Put64(&out, trace.seed);
  Put64(&out, static_cast<uint64_t>(trace.jobs.size()));
  Put32(&out, static_cast<uint32_t>(trace.classes.size()));
  for (const TraceClass& c : trace.classes) {
    PutF64(&out, c.cpu_cores);
    PutF64(&out, c.memory_gb);
    PutF64(&out, c.weight);
  }
  for (const TraceJob& job : trace.jobs) {
    Put32(&out, static_cast<uint32_t>(kJobRecordBytes));
    PutI64(&out, job.submit_us);
    PutI64(&out, job.duration_us);
    PutF64(&out, job.cpu_cores);
    PutF64(&out, job.memory_gb);
    Put32(&out, static_cast<uint32_t>(job.row_affinity));
    Put16(&out, job.class_id);
  }
  Put32(&out, kEndMarker);
  return out;
}

TraceParseResult ParseTrace(std::string_view bytes) {
  Reader in{bytes};
  if (in.remaining() < sizeof(kMagic)) {
    return Fail(TraceError::kTruncated, in.pos,
                "file shorter than the magic");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Fail(TraceError::kBadMagic, 0, "expected AMPTRACE");
  }
  in.pos = sizeof(kMagic);

  uint32_t version = 0;
  if (!in.Read32(&version)) {
    return Fail(TraceError::kTruncated, in.pos, "missing version");
  }
  if (version != kVersion) {
    return Fail(TraceError::kVersionSkew, in.pos - 4,
                "version " + std::to_string(version) + ", reader speaks " +
                    std::to_string(kVersion));
  }

  uint32_t header_len = 0;
  if (!in.Read32(&header_len)) {
    return Fail(TraceError::kTruncated, in.pos, "missing header length");
  }
  if (header_len < kHeaderFixedBytes) {
    return Fail(TraceError::kCorruptLength, in.pos - 4,
                "header length " + std::to_string(header_len) + " below " +
                    std::to_string(kHeaderFixedBytes));
  }
  if (header_len > in.remaining()) {
    return Fail(TraceError::kTruncated, in.pos,
                "header length " + std::to_string(header_len) +
                    " overruns the file");
  }
  const size_t header_end = in.pos + header_len;

  TraceParseResult result;
  TraceData& trace = result.trace;
  uint64_t job_count = 0;
  uint32_t class_count = 0;
  in.Read64(&trace.seed);        // Bounds guaranteed by the header_len check.
  in.Read64(&job_count);
  in.Read32(&class_count);
  if (class_count > kMaxClasses) {
    return Fail(TraceError::kCorruptLength, in.pos - 4,
                "class count " + std::to_string(class_count));
  }
  if (kHeaderFixedBytes + static_cast<size_t>(class_count) * kClassBytes >
      header_len) {
    return Fail(TraceError::kTruncated, in.pos,
                "classes overrun the declared header");
  }
  // An absurd job count (larger than the file could possibly hold) is a
  // corrupt length, not a short file.
  if (job_count > bytes.size() / 4) {
    return Fail(TraceError::kCorruptLength, sizeof(kMagic) + 16,
                "job count " + std::to_string(job_count) +
                    " impossible for a " + std::to_string(bytes.size()) +
                    "-byte file");
  }
  trace.classes.reserve(class_count);
  for (uint32_t c = 0; c < class_count; ++c) {
    TraceClass cls;
    in.ReadF64(&cls.cpu_cores);
    in.ReadF64(&cls.memory_gb);
    in.ReadF64(&cls.weight);
    if (!std::isfinite(cls.cpu_cores) || cls.cpu_cores <= 0.0 ||
        !std::isfinite(cls.memory_gb) || cls.memory_gb < 0.0 ||
        !std::isfinite(cls.weight) || cls.weight <= 0.0) {
      return Fail(TraceError::kBadRecord, in.pos - kClassBytes,
                  "class " + std::to_string(c) + " out of range");
    }
    trace.classes.push_back(cls);
  }
  in.pos = header_end;  // Skip header bytes a v1 reader does not know.

  trace.jobs.reserve(job_count);
  int64_t prev_submit = 0;
  for (uint64_t j = 0; j < job_count; ++j) {
    const size_t prefix_at = in.pos;
    uint32_t record_len = 0;
    if (!in.Read32(&record_len)) {
      return Fail(TraceError::kTruncated, prefix_at,
                  "file ends inside record " + std::to_string(j) +
                      "'s length prefix");
    }
    if (record_len < kJobRecordBytes || record_len > kMaxRecordBytes) {
      return Fail(TraceError::kCorruptLength, prefix_at,
                  "record " + std::to_string(j) + " length " +
                      std::to_string(record_len));
    }
    if (record_len > in.remaining()) {
      return Fail(TraceError::kTruncated, in.pos,
                  "file ends inside record " + std::to_string(j));
    }
    const size_t record_end = in.pos + record_len;
    TraceJob job;
    uint32_t row_bits = 0;
    in.ReadI64(&job.submit_us);
    in.ReadI64(&job.duration_us);
    in.ReadF64(&job.cpu_cores);
    in.ReadF64(&job.memory_gb);
    in.Read32(&row_bits);
    in.Read16(&job.class_id);
    job.row_affinity = static_cast<int32_t>(row_bits);
    if (job.submit_us < 0 || job.duration_us <= 0 ||
        !std::isfinite(job.cpu_cores) || job.cpu_cores <= 0.0 ||
        !std::isfinite(job.memory_gb) || job.memory_gb < 0.0 ||
        job.row_affinity < -1 ||
        (job.class_id != kTraceCustomClass &&
         job.class_id >= trace.classes.size())) {
      return Fail(TraceError::kBadRecord, prefix_at,
                  "record " + std::to_string(j) + " fails validation");
    }
    if (job.submit_us < prev_submit) {
      return Fail(TraceError::kOutOfOrder, prefix_at,
                  "record " + std::to_string(j) + " submits at " +
                      std::to_string(job.submit_us) + " us after " +
                      std::to_string(prev_submit) + " us");
    }
    prev_submit = job.submit_us;
    trace.jobs.push_back(job);
    in.pos = record_end;  // Skip v1.x extension bytes, if any.
  }

  uint32_t marker = 0;
  if (!in.Read32(&marker)) {
    return Fail(TraceError::kTruncated, in.pos, "missing end marker");
  }
  if (marker != kEndMarker) {
    return Fail(TraceError::kBadTrailer, in.pos - 4, "end marker mismatch");
  }
  if (in.remaining() != 0) {
    return Fail(TraceError::kBadTrailer, in.pos,
                std::to_string(in.remaining()) +
                    " trailing bytes after the end marker");
  }
  return result;
}

bool WriteTraceFile(const std::string& path, const TraceData& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    AMPERE_LOG(kWarning) << "cannot open trace " << path << " for writing";
    return false;
  }
  const std::string bytes = SerializeTrace(trace);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    AMPERE_LOG(kWarning) << "write to trace " << path << " failed";
    return false;
  }
  return true;
}

TraceParseResult ReadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    TraceParseResult result;
    result.error = TraceError::kIo;
    result.message = "io-error: cannot open " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTrace(buffer.str());
}

// --- TraceRecorder -------------------------------------------------------

TraceRecorder::TraceRecorder(Simulation* sim, JobSink* next)
    : sim_(sim), next_(next) {
  AMPERE_CHECK(sim != nullptr && next != nullptr);
}

void TraceRecorder::SetClasses(const std::vector<DemandProfile>& demands) {
  trace_.classes.clear();
  for (const DemandProfile& d : EffectiveDemands(demands)) {
    trace_.classes.push_back(
        TraceClass{d.demand.cpu_cores, d.demand.memory_gb, d.weight});
  }
}

void TraceRecorder::Submit(const JobSpec& job) {
  TraceJob record;
  record.submit_us = sim_->now().micros();
  record.duration_us = job.duration.micros();
  record.cpu_cores = job.demand.cpu_cores;
  record.memory_gb = job.demand.memory_gb;
  record.row_affinity =
      job.row_affinity.has_value() ? job.row_affinity->value() : -1;
  for (size_t c = 0; c < trace_.classes.size(); ++c) {
    if (trace_.classes[c].cpu_cores == record.cpu_cores &&
        trace_.classes[c].memory_gb == record.memory_gb) {
      record.class_id = static_cast<uint16_t>(c);
      break;
    }
  }
  trace_.jobs.push_back(record);
  next_->Submit(job);
}

TraceData SampleTrace(const BatchWorkloadParams& params, SimTime duration,
                      Rng rng) {
  struct Discard : JobSink {
    void Submit(const JobSpec&) override {}
  } discard;
  Simulation sim;
  JobIdAllocator ids;
  TraceRecorder recorder(&sim, &discard);
  recorder.SetClasses(params.demands);
  BatchWorkload workload(params, &sim, &recorder, &ids, rng);
  workload.Start(SimTime());
  sim.RunUntil(duration - SimTime::Micros(1));
  return recorder.trace();
}

// --- TraceArrivalProcess -------------------------------------------------

TraceArrivalProcess::TraceArrivalProcess(
    std::shared_ptr<const TraceData> trace, Simulation* sim, JobSink* sink,
    JobIdAllocator* ids)
    : trace_(std::move(trace)), sim_(sim), ids_(ids), stream_(sim, sink) {
  AMPERE_CHECK(trace_ != nullptr && ids != nullptr);
}

void TraceArrivalProcess::Start(SimTime at) {
  AMPERE_CHECK(!started_) << "trace replay already started";
  started_ = true;
  if (!trace_->jobs.empty()) {
    AMPERE_CHECK(trace_->jobs.front().submit_us >= at.micros())
        << "trace submits before the replay start";
  }
  sim_->SchedulePeriodic(at, SimTime::Minutes(1),
                         [this](SimTime t) { SubmitMinute(t); });
}

void TraceArrivalProcess::SubmitMinute(SimTime minute_start) {
  // Allocate JobIds here, at the minute boundary, exactly as BatchWorkload's
  // GenerateMinute does — that keeps replayed JobIds identical to the
  // recording run's (jobs submit within their generation minute, so
  // submission order equals generation order equals id order).
  const int64_t minute_end_us =
      (minute_start + SimTime::Minutes(1)).micros();
  while (cursor_ < trace_->jobs.size() &&
         trace_->jobs[cursor_].submit_us < minute_end_us) {
    const TraceJob& record = trace_->jobs[cursor_];
    ++cursor_;
    JobSpec job;
    job.id = ids_->Next();
    job.demand = Resources{record.cpu_cores, record.memory_gb};
    job.duration = SimTime::Micros(record.duration_us);
    if (record.row_affinity >= 0) {
      job.row_affinity = RowId(record.row_affinity);
    }
    stream_.Add(SimTime::Micros(record.submit_us), job);
  }
}

// --- Adversarial generation ----------------------------------------------

TraceData GenerateAdversarialTrace(const AdversarialTraceParams& params) {
  AMPERE_CHECK(params.base_rate_per_min > 0.0);
  AMPERE_CHECK(params.duration > SimTime());
  TraceData trace;
  trace.seed = params.seed;
  const std::vector<DemandProfile> demands =
      EffectiveDemands(params.demands);
  double total_weight = 0.0;
  for (const DemandProfile& d : demands) {
    trace.classes.push_back(
        TraceClass{d.demand.cpu_cores, d.demand.memory_gb, d.weight});
    total_weight += d.weight;
  }

  Rng rng(params.seed);
  Rng arrival_rng = rng.Fork(1);
  Rng shape_rng = rng.Fork(2);
  DurationModel durations{DurationModelParams{}};

  auto sample_class = [&](Rng& r) -> uint16_t {
    double pick = r.Uniform(0.0, total_weight);
    double acc = 0.0;
    for (size_t c = 0; c < demands.size(); ++c) {
      acc += demands[c].weight;
      if (pick <= acc) {
        return static_cast<uint16_t>(c);
      }
    }
    return static_cast<uint16_t>(demands.size() - 1);
  };
  auto sample_duration_us = [&](Rng& r) -> int64_t {
    if (params.kind == AdversarialTraceParams::Kind::kHeavyTail) {
      // Pareto(alpha) with unit minimum, scaled so the mean (for alpha > 1)
      // lands at mean_minutes; the tail puts hours-long jobs in the mix.
      const double alpha = params.heavy_tail_alpha;
      const double u = std::max(r.NextDouble(), 1e-12);
      double minutes = std::pow(u, -1.0 / alpha);
      if (alpha > 1.0) {
        minutes *= params.mean_minutes * (alpha - 1.0) / alpha;
      } else {
        minutes *= params.mean_minutes;
      }
      minutes = std::min(std::max(minutes, 0.1),
                         params.max_duration_minutes);
      return SimTime::Minutes(minutes).micros();
    }
    return durations.Sample(r).micros();
  };
  auto push_job = [&](int64_t submit_us, Rng& r) {
    TraceJob job;
    job.submit_us = submit_us;
    job.duration_us = sample_duration_us(shape_rng);
    job.class_id = sample_class(r);
    job.cpu_cores = demands[job.class_id].demand.cpu_cores;
    job.memory_gb = demands[job.class_id].demand.memory_gb;
    trace.jobs.push_back(job);
  };

  const int64_t minutes = params.duration.micros() / SimTime::Minutes(1).micros();
  const int64_t sync_minutes =
      std::max<int64_t>(1, params.sync_period.micros() /
                               SimTime::Minutes(1).micros());
  for (int64_t m = 0; m < minutes; ++m) {
    const int64_t minute_us = SimTime::Minutes(static_cast<double>(m)).micros();
    double rate = params.base_rate_per_min;
    if (params.kind == AdversarialTraceParams::Kind::kBursts &&
        arrival_rng.Bernoulli(params.burst_prob)) {
      rate *= params.burst_factor;
    }
    if (params.kind == AdversarialTraceParams::Kind::kSynchronized &&
        m % sync_minutes == 0) {
      // The herd lands on one microsecond at the top of the minute — the
      // pathological synchronized-cron arrival the Poisson model excludes.
      for (int k = 0; k < params.sync_batch; ++k) {
        push_job(minute_us, arrival_rng);
      }
      rate *= 0.25;  // Quiet between herds: feast-or-famine load.
    }
    const int64_t n = arrival_rng.Poisson(rate);
    std::vector<int64_t> offsets;
    offsets.reserve(static_cast<size_t>(n));
    for (int64_t k = 0; k < n; ++k) {
      offsets.push_back(
          SimTime::Seconds(arrival_rng.Uniform(0.0, 60.0)).micros());
    }
    std::sort(offsets.begin(), offsets.end());
    for (int64_t offset : offsets) {
      push_job(minute_us + offset, arrival_rng);
    }
  }
  return trace;
}

}  // namespace ampere
