// Property test of random-fit placement against a reference copy of the
// original algorithm: sample_attempts random probes, then a scan origin,
// then a per-axis root test and a linear first-fit scan in circular order.
// The reference has no saturation mode, no skipped draws and no tree
// descent, and it reads server state instead of the free-capacity index.
// Two identical data centers run in lockstep, one placed by Scheduler and
// one by the reference (with the scheduler's queue and drain rules). Every
// placement must pick the same server for the same job in the same order,
// and the queues must agree after every step; once the sequence ends, a
// burst of placements on the emptied DC compares the draws that follow.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/scheduler.h"

namespace ampere {
namespace {

struct Placement {
  int32_t job = -1;
  int32_t server = -1;
  bool operator==(const Placement&) const = default;
};

class ReferenceScheduler {
 public:
  ReferenceScheduler(DataCenter* dc, const SchedulerConfig& config, Rng rng)
      : dc_(dc), config_(config), rng_(rng) {
    dc_->SetTaskCompletionListener([this](ServerId, JobId) { DrainQueue(); });
  }

  void Submit(const JobSpec& job) {
    if (!TryPlace(job)) {
      pending_.push_back(job);
    }
  }
  void Freeze(ServerId id) { dc_->SetFrozen(id, true); }
  void Unfreeze(ServerId id) {
    dc_->SetFrozen(id, false);
    DrainQueue();
  }

  size_t queue_length() const { return pending_.size(); }
  const std::vector<Placement>& log() const { return log_; }

 private:
  bool Eligible(ServerId id, const JobSpec& job) const {
    const Server& server = dc_->server(id);
    return server.SchedulableState() && server.Available().Fits(job.demand) &&
           (!job.row_affinity.has_value() ||
            dc_->row_of(id) == *job.row_affinity);
  }

  ServerId ScanFrom(size_t start, const JobSpec& job) const {
    const auto n = static_cast<size_t>(dc_->num_servers());
    for (size_t k = 0; k < n; ++k) {
      const ServerId id(static_cast<int32_t>((start + k) % n));
      if (Eligible(id, job)) {
        return id;
      }
    }
    return ServerId();
  }

  // Per-axis maxima over the candidates, by brute force.
  Resources MaxCandidateFree() const {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    Resources max{kNegInf, kNegInf};
    for (int32_t s = 0; s < dc_->num_servers(); ++s) {
      const Server& server = dc_->server(ServerId(s));
      if (server.SchedulableState()) {
        const Resources free = server.Available();
        max.cpu_cores = std::max(max.cpu_cores, free.cpu_cores);
        max.memory_gb = std::max(max.memory_gb, free.memory_gb);
      }
    }
    return max;
  }

  ServerId PickRandomFit(const JobSpec& job) {
    const int64_t n = dc_->num_servers();
    for (int attempt = 0; attempt < config_.sample_attempts; ++attempt) {
      const ServerId id(static_cast<int32_t>(rng_.UniformInt(0, n - 1)));
      if (Eligible(id, job)) {
        return id;
      }
    }
    const auto origin = static_cast<size_t>(rng_.UniformInt(0, n - 1));
    if (!MaxCandidateFree().Fits(job.demand)) {
      return ServerId();
    }
    return ScanFrom(origin, job);
  }

  bool TryPlace(const JobSpec& job) {
    const ServerId id = PickRandomFit(job);
    if (!id.valid()) {
      return false;
    }
    EXPECT_TRUE(
        dc_->PlaceTask(id, TaskSpec{job.id, job.demand, job.duration}));
    log_.push_back({job.id.value(), id.value()});
    return true;
  }

  void DrainQueue() {
    size_t examined = 0;
    size_t failures = 0;
    for (auto it = pending_.begin();
         it != pending_.end() && examined < config_.queue_scan_limit &&
         failures < config_.drain_failure_limit;
         ++examined) {
      if (TryPlace(*it)) {
        it = pending_.erase(it);
      } else {
        ++failures;
        ++it;
      }
    }
  }

  DataCenter* dc_;
  SchedulerConfig config_;
  Rng rng_;
  std::deque<JobSpec> pending_;
  std::vector<Placement> log_;
};

TopologyConfig Topology(int32_t rows, int32_t racks, int32_t per_rack) {
  TopologyConfig config;
  config.num_rows = rows;
  config.racks_per_row = racks;
  config.servers_per_rack = per_rack;
  config.server_capacity = Resources{16.0, 64.0};
  return config;
}

// One data center placed by the real scheduler.
struct Subject {
  Simulation sim;
  DataCenter dc;
  Scheduler scheduler;
  std::vector<Placement> log;
  Subject(const TopologyConfig& topology, uint64_t seed)
      : dc(topology, &sim), scheduler(&dc, SchedulerConfig{}, Rng(seed)) {
    scheduler.SetPlacementListener([this](const JobSpec& job, ServerId id) {
      log.push_back({job.id.value(), id.value()});
    });
  }
};

// The same data center placed by the reference.
struct Mirror {
  Simulation sim;
  DataCenter dc;
  ReferenceScheduler scheduler;
  Mirror(const TopologyConfig& topology, uint64_t seed)
      : dc(topology, &sim), scheduler(&dc, SchedulerConfig{}, Rng(seed)) {}
};

void RunLockstep(const TopologyConfig& topology, uint64_t seed, int steps,
                 bool row_affinity) {
  Subject subject(topology, seed);
  Mirror mirror(topology, seed);
  Rng ops(seed ^ 0x5EEDULL);  // Drives both sides identically.
  const int32_t n = subject.dc.num_servers();
  const int32_t rows = subject.dc.num_rows();
  constexpr Resources kDemands[] = {{1.0, 2.0}, {2.0, 4.0}, {4.0, 8.0}};
  int32_t next_job = 0;
  SimTime now;
  // Bursts of up to 2n + 4 jobs (at most 48) between time steps short
  // enough that arrivals outrun completions: the DC saturates and backs up.
  const int64_t max_burst = std::min<int64_t>(2 * n + 4, 48);
  const int64_t max_advance_s =
      std::max<int64_t>(2, 240 * max_burst / (2 * n + 4));

  auto both = [&](auto&& op) {
    op(subject.dc, subject.scheduler);
    op(mirror.dc, mirror.scheduler);
  };
  for (int step = 0; step < steps; ++step) {
    const int64_t kind = ops.UniformInt(0, 99);
    if (kind < 55) {
      // A burst of jobs: enough to back the queue up on a small DC.
      const int64_t burst = ops.UniformInt(1, max_burst);
      for (int64_t j = 0; j < burst; ++j) {
        JobSpec job;
        job.id = JobId(next_job++);
        job.demand = kDemands[ops.UniformInt(0, 2)];
        job.duration =
            SimTime::Seconds(static_cast<double>(ops.UniformInt(30, 900)));
        if (row_affinity && ops.Bernoulli(0.3)) {
          job.row_affinity =
              RowId(static_cast<int32_t>(ops.UniformInt(0, rows - 1)));
        }
        subject.scheduler.Submit(job);
        mirror.scheduler.Submit(job);
      }
    } else if (kind < 75) {
      const ServerId id(static_cast<int32_t>(ops.UniformInt(0, n - 1)));
      if (ops.Bernoulli(0.6)) {
        subject.scheduler.Freeze(id);
        mirror.scheduler.Freeze(id);
      } else {
        subject.scheduler.Unfreeze(id);
        mirror.scheduler.Unfreeze(id);
      }
    } else if (kind < 80) {
      // Sleep an idle server, or wake a sleeping one.
      const ServerId id(static_cast<int32_t>(ops.UniformInt(0, n - 1)));
      if (subject.dc.server(id).asleep()) {
        both([id](DataCenter& dc, auto&) { dc.WakeServer(id); });
      } else if (subject.dc.server(id).num_tasks() == 0) {
        both([id](DataCenter& dc, auto&) { dc.SleepServer(id); });
      }
    } else {
      // Completions (and the wake-ups due) fire, each draining the queue.
      now += SimTime::Seconds(
          static_cast<double>(ops.UniformInt(1, max_advance_s)));
      subject.sim.RunUntil(now);
      mirror.sim.RunUntil(now);
    }
    ASSERT_EQ(subject.scheduler.queue_length(),
              mirror.scheduler.queue_length())
        << "step " << step;
    ASSERT_EQ(subject.log.size(), mirror.scheduler.log().size())
        << "step " << step;
  }
  ASSERT_EQ(subject.log, mirror.scheduler.log());
  ASSERT_GT(subject.log.size(), 0u);

  // Wake and unfreeze everything, then work the backlog off: each
  // Unfreeze drains the queue, each time step completes what it placed.
  for (int32_t s = 0; s < n; ++s) {
    const ServerId id(s);
    both([id](DataCenter& dc, auto&) { dc.WakeServer(id); });
  }
  for (int round = 0; round < 100'000 &&
                      (subject.scheduler.queue_length() > 0 || round < 2);
       ++round) {
    const ServerId id(round % n);
    subject.scheduler.Unfreeze(id);
    mirror.scheduler.Unfreeze(id);
    now += SimTime::Hours(1);
    subject.sim.RunUntil(now);
    mirror.sim.RunUntil(now);
  }
  ASSERT_EQ(subject.scheduler.queue_length(), 0u);
  ASSERT_EQ(mirror.scheduler.queue_length(), 0u);
  ASSERT_EQ(subject.log, mirror.scheduler.log());
  // Every server is idle now, so each placement below is the first
  // probe's draw: any draw one side consumed differently shows here.
  const size_t before = subject.log.size();
  for (int j = 0; j < 64; ++j) {
    JobSpec job;
    job.id = JobId(next_job++);
    job.demand = Resources{0.25, 0.5};
    job.duration = SimTime::Seconds(60);
    subject.scheduler.Submit(job);
    mirror.scheduler.Submit(job);
  }
  ASSERT_EQ(subject.log.size(), before + 64);
  ASSERT_EQ(subject.log, mirror.scheduler.log());
}

struct Shape {
  int32_t rows;
  int32_t racks;
  int32_t per_rack;
};

class PlacementPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(PlacementPropertyTest, MatchesReferenceWithoutRowAffinity) {
  const Shape shape = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunLockstep(Topology(shape.rows, shape.racks, shape.per_rack), seed,
                /*steps=*/400, /*row_affinity=*/false);
  }
}

TEST_P(PlacementPropertyTest, MatchesReferenceWithRowAffinity) {
  const Shape shape = GetParam();
  for (uint64_t seed : {4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunLockstep(Topology(shape.rows, shape.racks, shape.per_rack), seed,
                /*steps=*/400, /*row_affinity=*/true);
  }
}

// n = 1, 7, 420 and 1000 servers; none but 1 is a multiple of the tree's
// block or a power of two.
INSTANTIATE_TEST_SUITE_P(Sizes, PlacementPropertyTest,
                         ::testing::Values(Shape{1, 1, 1}, Shape{7, 1, 1},
                                           Shape{10, 1, 42},
                                           Shape{4, 5, 50}));

}  // namespace
}  // namespace ampere
