// Latency-critical interactive service (Redis-like), used to reproduce the
// Fig. 11 comparison between hardware power capping and Ampere.
//
// Each participating server hosts one single-threaded service instance
// (Redis is single-threaded and CPU-bound, §4.3) modeled as a resident task
// plus a FIFO request queue. Requests arrive open-loop (Poisson) and are
// served at a rate proportional to the server's current DVFS frequency, so
// row-level capping directly stretches service times and builds queues —
// the paper's explanation for the ~2x p99.9 latency inflation.

#ifndef SRC_WORKLOAD_INTERACTIVE_SERVICE_H_
#define SRC_WORKLOAD_INTERACTIVE_SERVICE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/stats/histogram.h"

namespace ampere {

// The redis-benchmark operations the paper reports (Fig. 11), with base
// service costs at full frequency. LRANGE_600 walks 600 list entries and is
// an order of magnitude more expensive than point ops; MSET writes 10 keys.
enum class RedisOp : int {
  kSet = 0,
  kGet = 1,
  kLpush = 2,
  kLpop = 3,
  kLrange600 = 4,
  kMset = 5,
};
inline constexpr int kNumRedisOps = 6;

const char* RedisOpName(RedisOp op);
double RedisOpBaseServiceMicros(RedisOp op);

struct InteractiveServiceParams {
  std::vector<ServerId> servers;
  // Open-loop arrival rate per server, all ops combined. The default puts a
  // single-threaded instance at ~35 % utilization at full frequency, leaving
  // headroom that throttling erodes.
  double requests_per_sec_per_server = 2500.0;
  // Resources held by the resident service task on each server.
  Resources resident_demand{6.0, 24.0};
  // Multiplicative lognormal jitter on service times.
  double service_jitter_sigma = 0.2;
  // Latency histogram layout.
  double histogram_max_ms = 200.0;
  int histogram_bins = 20000;
};

class InteractiveService {
 public:
  // `sim` and `dc` must outlive the service.
  InteractiveService(const InteractiveServiceParams& params, Simulation* sim,
                     DataCenter* dc, Rng rng);

  // Places the resident task on every participating server (they must have
  // capacity) and generates requests from `start` to `until`. Latencies are
  // recorded only for requests arriving in [measure_from, until].
  void Run(SimTime start, SimTime until, SimTime measure_from);

  const Histogram& latency_histogram(RedisOp op) const {
    return histograms_[static_cast<size_t>(op)];
  }
  uint64_t requests_served() const { return requests_served_; }

 private:
  struct Instance {
    ServerId server;
    std::deque<std::pair<SimTime, RedisOp>> queue;  // (arrival, op)
    bool busy = false;
  };

  // Draws the instance's next request (exponential gap after `from`, then
  // its op) and schedules its arrival, unless it falls past until_.
  void ScheduleNextArrival(size_t instance_idx, SimTime from);
  void OnArrival(size_t instance_idx, SimTime arrival, RedisOp op);
  void BeginService(size_t instance_idx, SimTime arrival, RedisOp op);

  InteractiveServiceParams params_;
  Simulation* sim_;
  DataCenter* dc_;
  Rng rng_;
  // Base service cost per op, built once in the constructor so the hot
  // BeginService path is a table load instead of a switch.
  std::array<double, kNumRedisOps> op_base_us_{};
  std::vector<Instance> instances_;
  std::vector<Histogram> histograms_;
  SimTime until_;
  SimTime measure_from_;
  uint64_t requests_served_ = 0;
};

}  // namespace ampere

#endif  // SRC_WORKLOAD_INTERACTIVE_SERVICE_H_
