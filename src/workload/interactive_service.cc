#include "src/workload/interactive_service.h"

#include "src/common/check.h"

namespace ampere {

const char* RedisOpName(RedisOp op) {
  switch (op) {
    case RedisOp::kSet:
      return "SET";
    case RedisOp::kGet:
      return "GET";
    case RedisOp::kLpush:
      return "LPUSH";
    case RedisOp::kLpop:
      return "LPOP";
    case RedisOp::kLrange600:
      return "LRANGE_600";
    case RedisOp::kMset:
      return "MSET";
  }
  return "?";
}

double RedisOpBaseServiceMicros(RedisOp op) {
  switch (op) {
    case RedisOp::kSet:
      return 70.0;
    case RedisOp::kGet:
      return 60.0;
    case RedisOp::kLpush:
      return 75.0;
    case RedisOp::kLpop:
      return 75.0;
    case RedisOp::kLrange600:
      return 600.0;
    case RedisOp::kMset:
      return 180.0;
  }
  return 100.0;
}

InteractiveService::InteractiveService(const InteractiveServiceParams& params,
                                       Simulation* sim, DataCenter* dc,
                                       Rng rng)
    : params_(params), sim_(sim), dc_(dc), rng_(rng) {
  AMPERE_CHECK(sim != nullptr && dc != nullptr);
  AMPERE_CHECK(!params.servers.empty());
  AMPERE_CHECK(params.requests_per_sec_per_server > 0.0);
  histograms_.reserve(kNumRedisOps);
  for (int i = 0; i < kNumRedisOps; ++i) {
    histograms_.emplace_back(0.0, params.histogram_max_ms,
                             params.histogram_bins);
    op_base_us_[static_cast<size_t>(i)] =
        RedisOpBaseServiceMicros(static_cast<RedisOp>(i));
  }
  instances_.reserve(params.servers.size());
  for (ServerId id : params.servers) {
    instances_.push_back(Instance{id, {}, false});
  }
}

void InteractiveService::Run(SimTime start, SimTime until,
                             SimTime measure_from) {
  AMPERE_CHECK(until > start);
  until_ = until;
  measure_from_ = measure_from;
  for (size_t i = 0; i < instances_.size(); ++i) {
    // Pin the resident service task: effectively permanent (it outlives the
    // experiment window by a wide margin).
    TaskSpec resident;
    resident.job = JobId(-1000 - static_cast<int32_t>(i));
    resident.demand = params_.resident_demand;
    resident.work = SimTime::Hours(24 * 365);
    AMPERE_CHECK(dc_->PlaceTask(instances_[i].server, resident))
        << "resident service task does not fit on server "
        << instances_[i].server.value();
  }
  // Every instance's first arrival, drawn in instance order.
  for (size_t i = 0; i < instances_.size(); ++i) {
    ScheduleNextArrival(i, start);
  }
}

void InteractiveService::ScheduleNextArrival(size_t instance_idx,
                                             SimTime from) {
  double mean_gap_us = 1e6 / params_.requests_per_sec_per_server;
  SimTime gap = SimTime::Micros(
      static_cast<int64_t>(rng_.Exponential(mean_gap_us)) + 1);
  SimTime at = from + gap;
  if (at > until_) {
    return;  // Benchmark window over; stop this instance's arrivals.
  }
  auto op = static_cast<RedisOp>(rng_.UniformInt(0, kNumRedisOps - 1));
  sim_->ScheduleAt(at, [this, instance_idx, at, op] {
    OnArrival(instance_idx, at, op);
    ScheduleNextArrival(instance_idx, at);
  });
}

void InteractiveService::OnArrival(size_t instance_idx, SimTime arrival,
                                   RedisOp op) {
  Instance& inst = instances_[instance_idx];
  if (inst.busy) {
    inst.queue.emplace_back(arrival, op);
    return;
  }
  BeginService(instance_idx, arrival, op);
}

void InteractiveService::BeginService(size_t instance_idx, SimTime arrival,
                                      RedisOp op) {
  Instance& inst = instances_[instance_idx];
  inst.busy = true;
  // Service rate scales with the server's current DVFS frequency: a capped
  // CPU processes the same request more slowly.
  double freq = dc_->server(inst.server).frequency();
  double jitter = rng_.LogNormal(0.0, params_.service_jitter_sigma);
  double service_us = op_base_us_[static_cast<size_t>(op)] * jitter / freq;
  SimTime done = sim_->now() + SimTime::Micros(
                                   static_cast<int64_t>(service_us) + 1);
  sim_->ScheduleAt(done, [this, instance_idx, arrival, op, done] {
    Instance& instance = instances_[instance_idx];
    ++requests_served_;
    if (arrival >= measure_from_) {
      double latency_ms = (done - arrival).millis();
      histograms_[static_cast<size_t>(op)].Add(latency_ms);
    }
    instance.busy = false;
    if (!instance.queue.empty()) {
      auto [next_arrival, next_op] = instance.queue.front();
      instance.queue.pop_front();
      BeginService(instance_idx, next_arrival, next_op);
    }
  });
}

}  // namespace ampere
