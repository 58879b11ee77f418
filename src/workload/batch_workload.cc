#include "src/workload/batch_workload.h"

#include "src/common/check.h"

namespace ampere {

ArrivalStream::ArrivalStream(Simulation* sim, JobSink* sink)
    : sim_(sim), sink_(sink) {
  AMPERE_CHECK(sim != nullptr && sink != nullptr);
  stream_ = sim_->RegisterStream(this);
}

void ArrivalStream::Fire(uint32_t) {
  // Pop before submitting: the sink may queue further arrivals.
  const JobSpec job = pending_.front();
  pending_.pop_front();
  ++jobs_submitted_;
  sink_->Submit(job);
}

BatchWorkload::BatchWorkload(const BatchWorkloadParams& params,
                             Simulation* sim, JobSink* sink,
                             JobIdAllocator* ids, Rng rng)
    : params_(params), sim_(sim), ids_(ids), rng_(rng),
      arrivals_(params.arrivals, rng_.Fork(1)), stream_(sim, sink),
      durations_(params.durations) {
  AMPERE_CHECK(ids != nullptr);
  if (params_.demands.empty()) {
    params_.demands = {
        {Resources{1.0, 2.0}, 0.4},
        {Resources{2.0, 4.0}, 0.4},
        {Resources{4.0, 8.0}, 0.2},
    };
  }
  for (const DemandProfile& d : params_.demands) {
    AMPERE_CHECK(d.weight > 0.0);
    total_weight_ += d.weight;
  }
}

void BatchWorkload::Start(SimTime at) {
  sim_->SchedulePeriodic(at, SimTime::Minutes(1),
                         [this](SimTime t) { GenerateMinute(t); });
}

void BatchWorkload::GenerateMinute(SimTime minute_start) {
  arrivals_.SampleMinute(minute_start, &offsets_);
  for (SimTime offset : offsets_) {
    JobSpec job;
    job.id = ids_->Next();
    job.demand = SampleDemand();
    job.duration = durations_.Sample(rng_);
    job.row_affinity = params_.row_affinity;
    ++jobs_generated_;
    stream_.Add(minute_start + offset, job);
  }
}

Resources BatchWorkload::SampleDemand() {
  double pick = rng_.Uniform(0.0, total_weight_);
  double acc = 0.0;
  for (const DemandProfile& d : params_.demands) {
    acc += d.weight;
    if (pick <= acc) {
      return d.demand;
    }
  }
  return params_.demands.back().demand;
}

}  // namespace ampere
