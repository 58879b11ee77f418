#include "src/workload/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/check.h"
#include "src/workload/arrival_process.h"
#include "src/workload/duration_model.h"

namespace ampere {
namespace {

constexpr char kHeader[] = "submit_min,duration_min,cpu_cores,memory_gb,row";

}  // namespace

void WriteJobTrace(std::ostream& out, const std::vector<TraceRecord>& trace) {
  out << kHeader << "\n";
  char line[160];
  for (const TraceRecord& r : trace) {
    std::snprintf(line, sizeof(line), "%.6f,%.6f,%.3f,%.3f,%d\n",
                  r.submit_minutes, r.duration_minutes, r.cpu_cores,
                  r.memory_gb, r.row_affinity);
    out << line;
  }
}

std::vector<TraceRecord> ReadJobTrace(std::istream& in) {
  std::vector<TraceRecord> trace;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (line_number == 1) {
      AMPERE_CHECK(line == kHeader)
          << "bad trace header at line 1: '" << line << "'";
      continue;
    }
    TraceRecord r;
    std::istringstream fields(line);
    std::string field;
    double* targets[4] = {&r.submit_minutes, &r.duration_minutes,
                          &r.cpu_cores, &r.memory_gb};
    for (double* target : targets) {
      AMPERE_CHECK(std::getline(fields, field, ','))
          << "trace line " << line_number << ": too few fields";
      try {
        *target = std::stod(field);
      } catch (const std::exception&) {
        AMPERE_CHECK(false) << "trace line " << line_number
                            << ": non-numeric field '" << field << "'";
      }
    }
    AMPERE_CHECK(std::getline(fields, field, ','))
        << "trace line " << line_number << ": missing row field";
    try {
      r.row_affinity = std::stoi(field);
    } catch (const std::exception&) {
      AMPERE_CHECK(false) << "trace line " << line_number
                          << ": non-numeric row '" << field << "'";
    }
    AMPERE_CHECK(r.submit_minutes >= 0.0 && r.duration_minutes > 0.0 &&
                 r.cpu_cores > 0.0 && r.memory_gb >= 0.0)
        << "trace line " << line_number << ": out-of-range values";
    trace.push_back(r);
  }
  return trace;
}

void WriteJobTraceFile(const std::string& path,
                       const std::vector<TraceRecord>& trace) {
  std::ofstream out(path);
  AMPERE_CHECK(out.good()) << "cannot open " << path << " for writing";
  WriteJobTrace(out, trace);
  AMPERE_CHECK(out.good()) << "write to " << path << " failed";
}

std::vector<TraceRecord> ReadJobTraceFile(const std::string& path) {
  std::ifstream in(path);
  AMPERE_CHECK(in.good()) << "cannot open " << path;
  return ReadJobTrace(in);
}

std::vector<TraceRecord> SampleTrace(const BatchWorkloadParams& params,
                                     SimTime duration, Rng rng) {
  // Mirror BatchWorkload's sampling, but into records instead of a sink.
  std::vector<DemandProfile> demands = params.demands;
  if (demands.empty()) {
    demands = {{Resources{1.0, 2.0}, 0.4},
               {Resources{2.0, 4.0}, 0.4},
               {Resources{4.0, 8.0}, 0.2}};
  }
  double total_weight = 0.0;
  for (const DemandProfile& d : demands) {
    total_weight += d.weight;
  }
  ArrivalProcess arrivals(params.arrivals, rng.Fork(1));
  DurationModel durations(params.durations);
  Rng local = rng.Fork(2);

  std::vector<TraceRecord> trace;
  std::vector<SimTime> offsets;
  int64_t minutes = static_cast<int64_t>(duration.minutes());
  for (int64_t m = 0; m < minutes; ++m) {
    SimTime minute_start = SimTime::Minutes(static_cast<double>(m));
    arrivals.SampleMinute(minute_start, &offsets);
    for (SimTime offset : offsets) {
      TraceRecord r;
      r.submit_minutes = (minute_start + offset).minutes();
      r.duration_minutes = durations.Sample(local).minutes();
      double pick = local.Uniform(0.0, total_weight);
      double acc = 0.0;
      const DemandProfile* chosen = &demands.back();
      for (const DemandProfile& d : demands) {
        acc += d.weight;
        if (pick <= acc) {
          chosen = &d;
          break;
        }
      }
      r.cpu_cores = chosen->demand.cpu_cores;
      r.memory_gb = chosen->demand.memory_gb;
      r.row_affinity =
          params.row_affinity.has_value() ? params.row_affinity->value() : -1;
      trace.push_back(r);
    }
  }
  return trace;
}

TraceWorkload::TraceWorkload(std::vector<TraceRecord> trace, Simulation* sim,
                             JobSink* sink, JobIdAllocator* ids)
    : trace_(std::move(trace)), sim_(sim), sink_(sink), ids_(ids) {
  AMPERE_CHECK(sim != nullptr && sink != nullptr && ids != nullptr);
}

void TraceWorkload::Start() {
  AMPERE_CHECK(!started_) << "trace already started";
  started_ = true;
  for (const TraceRecord& r : trace_) {
    SimTime at = SimTime::Minutes(r.submit_minutes);
    AMPERE_CHECK(at >= sim_->now())
        << "trace record submits in the past: " << r.submit_minutes << " min";
    JobSpec job;
    job.id = ids_->Next();
    job.demand = Resources{r.cpu_cores, r.memory_gb};
    job.duration = SimTime::Minutes(r.duration_minutes);
    if (r.row_affinity >= 0) {
      job.row_affinity = RowId(r.row_affinity);
    }
    sim_->ScheduleAt(at, [this, job] {
      ++jobs_submitted_;
      sink_->Submit(job);
    });
  }
}

}  // namespace ampere
