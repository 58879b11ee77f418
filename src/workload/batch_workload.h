// Batch workload generator: drives Poisson job arrivals into the scheduler.
//
// One generator models one "product" (§2.2: different rows mainly run
// different products). Multi-row experiments instantiate one generator per
// row with distinct rates/phases so cross-row power is weakly correlated, as
// Fig. 2 requires.

#ifndef SRC_WORKLOAD_BATCH_WORKLOAD_H_
#define SRC_WORKLOAD_BATCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/ring_queue.h"
#include "src/common/rng.h"
#include "src/sim/simulation.h"
#include "src/workload/arrival_process.h"
#include "src/workload/duration_model.h"
#include "src/workload/job.h"

namespace ampere {

// Monotonic JobId source shared by all generators in one experiment.
class JobIdAllocator {
 public:
  JobId Next() { return JobId(next_++); }

 private:
  int32_t next_ = 0;
};

// Submits jobs to a sink at their arrival instants through one Simulation
// event stream: a queued job costs one FIFO slot here and one stream entry,
// with no closure and no event-heap entry. Jobs must be added in
// non-decreasing arrival order, which every arrival source produces: it
// generates a minute's arrivals sorted, at the start of that minute.
class ArrivalStream final : public EventTarget {
 public:
  // `sim` and `sink` must outlive the stream, and the stream must outlive
  // its queued arrivals.
  ArrivalStream(Simulation* sim, JobSink* sink);
  ArrivalStream(const ArrivalStream&) = delete;
  ArrivalStream& operator=(const ArrivalStream&) = delete;

  // Queues `job` for submission at `at`, which must be >= now() and not
  // before the last queued arrival.
  void Add(SimTime at, const JobSpec& job) {
    sim_->ScheduleStreamAt(stream_, at, 0);
    pending_.push_back(job);
  }

  uint64_t jobs_submitted() const { return jobs_submitted_; }

  bool Live(uint32_t, uint64_t) const override { return true; }
  // Submits the oldest queued job.
  void Fire(uint32_t index) override;

 private:
  Simulation* sim_;
  JobSink* sink_;
  uint32_t stream_;
  RingQueue<JobSpec> pending_;
  uint64_t jobs_submitted_ = 0;
};

// A job size class and its sampling weight.
struct DemandProfile {
  Resources demand;
  double weight = 1.0;
};

struct BatchWorkloadParams {
  ArrivalProcessParams arrivals;
  DurationModelParams durations;
  // Defaults (set in the constructor if empty): 40 % 1-core, 40 % 2-core,
  // 20 % 4-core containers -> mean 2.0 cores, matching §4.1.3's "each job has
  // similar average resource requirements".
  std::vector<DemandProfile> demands;
  std::optional<RowId> row_affinity;
};

class BatchWorkload {
 public:
  // `sim`, `sink`, and `ids` must outlive the workload.
  BatchWorkload(const BatchWorkloadParams& params, Simulation* sim,
                JobSink* sink, JobIdAllocator* ids, Rng rng);

  // Begins generating at `at`, one minute-batch at a time, forever.
  void Start(SimTime at);

  uint64_t jobs_generated() const { return jobs_generated_; }

 private:
  void GenerateMinute(SimTime minute_start);
  Resources SampleDemand();

  BatchWorkloadParams params_;
  Simulation* sim_;
  JobIdAllocator* ids_;
  Rng rng_;
  ArrivalProcess arrivals_;
  std::vector<SimTime> offsets_;  // One minute's arrival offsets, reused.
  ArrivalStream stream_;
  DurationModel durations_;
  double total_weight_ = 0.0;
  uint64_t jobs_generated_ = 0;
};

}  // namespace ampere

#endif  // SRC_WORKLOAD_BATCH_WORKLOAD_H_
