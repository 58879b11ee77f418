#include "src/sched/scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

Scheduler::Scheduler(DataCenter* dc, const SchedulerConfig& config, Rng rng)
    : dc_(dc), rm_(dc), config_(config), rng_(rng),
      row_placements_(static_cast<size_t>(dc->num_rows()), 0) {
  AMPERE_CHECK(dc != nullptr);
  AMPERE_CHECK(config.sample_attempts >= 1);
  dc_->SetTaskCompletionListener(
      [this](ServerId server, JobId job) { OnTaskCompleted(server, job); });
}

void Scheduler::Submit(const JobSpec& job) {
  AMPERE_METRICS_DOMAIN(obs_domain_);
  ++jobs_submitted_;
  AMPERE_COUNTER_ADD("sched.jobs_submitted", 1);
  if (!TryPlace(job)) {
    pending_.push_back(job);
    AMPERE_COUNTER_ADD("sched.jobs_queued", 1);
  }
}

std::vector<JobSpec> Scheduler::TakePending(size_t max_jobs) {
  AMPERE_METRICS_DOMAIN(obs_domain_);
  std::vector<JobSpec> taken;
  if (max_jobs == 0 || pending_.empty()) {
    return taken;
  }
  taken.reserve(std::min(max_jobs, pending_.size()));
  // Oldest first, stopping once the budget is spent: movable jobs are
  // taken, row-pinned ones are compacted to the front of the scanned
  // prefix, and the prefix's vacated tail is erased. The pinned jobs and
  // the unscanned rest keep their original relative order.
  size_t kept = 0;
  size_t scanned = 0;
  for (; scanned < pending_.size() && taken.size() < max_jobs; ++scanned) {
    if (pending_[scanned].row_affinity.has_value()) {
      pending_[kept++] = pending_[scanned];
    } else {
      taken.push_back(pending_[scanned]);
    }
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(kept),
                 pending_.begin() + static_cast<std::ptrdiff_t>(scanned));
  jobs_spilled_out_ += taken.size();
  if (!taken.empty()) {
    AMPERE_COUNTER_ADD("sched.jobs_spilled_out", taken.size());
  }
  return taken;
}

void Scheduler::Freeze(ServerId id) { rm_.Freeze(id); }

void Scheduler::Unfreeze(ServerId id) {
  rm_.Unfreeze(id);
  // A server just returned to the candidate list; queued jobs may now fit.
  DrainQueue();
}

RpcResult Scheduler::RunRpc() {
  RpcResult result;
  if (injector_ == nullptr) {
    return result;  // Infallible, instantaneous.
  }
  const int max_attempts = std::max(1, injector_->rpc_max_attempts());
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    faults::RpcAttempt draw = injector_->DrawRpcAttempt();
    result.attempts = attempt + 1;
    result.latency += draw.latency;
    if (draw.ok) {
      result.ok = true;
      return result;
    }
    AMPERE_COUNTER_ADD("faults.rpc_failed_attempts", 1);
    // Exponential backoff before the next attempt (accounted latency only).
    if (attempt + 1 < max_attempts) {
      result.latency += injector_->rpc_backoff_base() * std::pow(2.0, attempt);
      AMPERE_COUNTER_ADD("faults.rpc_retries", 1);
    }
  }
  result.ok = false;
  AMPERE_COUNTER_ADD("faults.rpc_exhausted", 1);
  return result;
}

RpcResult Scheduler::TryFreeze(ServerId id) {
  RpcResult result = RunRpc();
  if (result.ok) {
    Freeze(id);
  }
  return result;
}

RpcResult Scheduler::TryUnfreeze(ServerId id) {
  RpcResult result = RunRpc();
  if (result.ok) {
    Unfreeze(id);
  }
  return result;
}

bool Scheduler::Eligible(ServerId id, const JobSpec& job) const {
  // The low level's candidate list plus the job's own constraints.
  if (!rm_.CanHost(id, job.demand)) {
    return false;
  }
  return !job.row_affinity.has_value() || dc_->row_of(id) == *job.row_affinity;
}

ServerId Scheduler::ScanFrom(size_t start, const JobSpec& job) const {
  // First fit in circular order from `start` over the dense free-capacity
  // array: [start, n), then [0, start).
  auto first_fit = [this, &job](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const ServerId id(static_cast<int32_t>(i));
      if (Eligible(id, job)) {
        return id;
      }
    }
    return ServerId();
  };
  const ServerId id =
      first_fit(start, static_cast<size_t>(dc_->num_servers()));
  return id.valid() ? id : first_fit(0, start);
}

ServerId Scheduler::PickRandomFit(const JobSpec& job) {
  const int64_t n = dc_->num_servers();
  // Saturated (the last random-fit placement's probes all missed): ask the
  // candidates' per-axis maxima first. A demand they rule out fits no
  // server, so no probe and no scan can succeed; the attempt only consumes
  // its draws, the probes' and the scan origin's, exactly as if it ran.
  if (saturated_ && !dc_->MaxSchedulableFree().Fits(job.demand)) {
    rng_.SkipUniformInt(0, n - 1, config_.sample_attempts + 1);
    return ServerId();
  }
  for (int attempt = 0; attempt < config_.sample_attempts; ++attempt) {
    ServerId id(static_cast<int32_t>(rng_.UniformInt(0, n - 1)));
    if (Eligible(id, job)) {
      saturated_ = false;
      return id;
    }
  }
  saturated_ = true;
  // Random probing failed (cluster nearly full or mostly frozen); fall back
  // to a scan from a random origin so placement stays work-conserving
  // without biasing toward low server ids. The origin is drawn even when
  // the candidates' per-axis maxima rule the scan out, so the RNG stream
  // does not depend on whether it runs.
  const auto origin = static_cast<size_t>(rng_.UniformInt(0, n - 1));
  if (!dc_->MaxSchedulableFree().Fits(job.demand)) {
    return ServerId();
  }
  // The tree is current here, so the first fit is a descent of it; a
  // row-pinned job keeps the linear scan, which also checks the row.
  return job.row_affinity.has_value()
             ? ScanFrom(origin, job)
             : dc_->FirstSchedulableFit(origin, job.demand);
}

ServerId Scheduler::PickRowOrdered(const JobSpec& job, bool hottest_first) {
  // Rank rows by power, skipping rows already above the power ceiling;
  // place on a random eligible server of the best admissible row. If every
  // row is above the ceiling (or nothing fits), fall back to random-fit so
  // the policy stays work-conserving.
  row_order_.clear();
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    row_order_.push_back(RowId(r));
  }
  std::sort(row_order_.begin(), row_order_.end(),
            [this, hottest_first](RowId a, RowId b) {
              double pa = dc_->row_power_watts(a);
              double pb = dc_->row_power_watts(b);
              return hottest_first ? pa > pb : pa < pb;
            });
  for (RowId row : row_order_) {
    if (job.row_affinity.has_value() && row != *job.row_affinity) {
      continue;
    }
    if (dc_->row_power_watts(row) >
        config_.concentrate_power_ceiling * dc_->row_budget_watts(row)) {
      continue;
    }
    auto servers = dc_->servers_in_row(row);
    auto n = static_cast<int64_t>(servers.size());
    for (int attempt = 0; attempt < config_.sample_attempts; ++attempt) {
      ServerId id = servers[static_cast<size_t>(rng_.UniformInt(0, n - 1))];
      if (Eligible(id, job)) {
        return id;
      }
    }
  }
  return PickRandomFit(job);
}

ServerId Scheduler::PickServer(const JobSpec& job) {
  switch (config_.policy) {
    case PlacementPolicy::kRandomFit:
      return PickRandomFit(job);
    case PlacementPolicy::kConcentrateRows:
      return PickRowOrdered(job, /*hottest_first=*/true);
    case PlacementPolicy::kPowerAwareSpread:
      return PickRowOrdered(job, /*hottest_first=*/false);
  }
  return ServerId();
}

bool Scheduler::TryPlace(const JobSpec& job) {
  // No span here: placement runs once per job event, which is far too hot
  // for per-call wall-clock instrumentation (the same rationale as the
  // event loop in Simulation::RunUntil, which spans the drain rather than
  // each event). The sched.placements counter below remains the per-call
  // signal; tick-level latency is covered by controller.tick/sim.run_until.
  ServerId id = PickServer(job);
  if (!id.valid()) {
    return false;
  }
  AMPERE_COUNTER_ADD("sched.placements", 1);
  TaskSpec spec{job.id, job.demand, job.duration};
  bool placed = rm_.ClaimContainer(id, spec);
  AMPERE_CHECK(placed) << "picked server could not host the container";
  ++jobs_placed_;
  ++row_placements_[dc_->row_of(id).index()];
  if (placement_listener_) {
    placement_listener_(job, id);
  }
  return true;
}

void Scheduler::DrainQueue() {
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

void Scheduler::OnTaskCompleted(ServerId server, JobId job) {
  AMPERE_METRICS_DOMAIN(obs_domain_);
  // Resident service tasks carry negative ids and are not scheduler jobs.
  if (job.value() >= 0) {
    ++jobs_completed_;
  }
  if (completion_listener_) {
    completion_listener_(server, job);
  }
  DrainQueue();
}

}  // namespace ampere
