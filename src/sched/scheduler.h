// Two-level job scheduler with the paper's freeze/unfreeze interface.
//
// §2.1: the production scheduler is Omega-like and two-level — the low level
// tracks resource status, bundles resources into containers and maintains a
// candidate list; the upper level decides placement with an
// application-specific policy. Ampere interacts with it through exactly two
// operations: Freeze(server) removes a server from the candidate list
// (running tasks are untouched), Unfreeze(server) restores it. That minimal
// surface is the paper's central design claim, so this class exposes nothing
// else to the controller.
//
// Placement is statistical: randomized policies spread jobs over the
// candidate list, so "the number of jobs scheduled to a row is roughly
// proportional to the number of available servers of the row" (§3.4) — the
// property Ampere's indirect control relies on.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/faults/fault_injector.h"
#include "src/sched/resource_manager.h"
#include "src/workload/job.h"

namespace ampere {

// Outcome of one fallible freeze/unfreeze RPC (TryFreeze / TryUnfreeze),
// after the scheduler's bounded retry/backoff policy ran its course.
struct RpcResult {
  bool ok = true;
  int attempts = 1;  // RPC attempts consumed (1 = first try succeeded).
  // Total accounted latency: per-attempt latencies plus backoff between
  // retries. Accounted (journal/metrics), not injected into the event queue:
  // at 1/min control cadence sub-second RPC lag never reorders decisions.
  SimTime latency;
};

enum class PlacementPolicy : int {
  // Random eligible server (power-of-d probing with scan fallback).
  kRandomFit = 0,
  // Extension (paper §6 future work): concentrate load on already-busy rows
  // (up to a power ceiling) so cross-row power variance grows, leaving cold
  // rows with large contiguous unused power for Ampere to cultivate.
  kConcentrateRows = 1,
  // Baseline comparator (§5.2): the "straightforward design" the paper
  // rejects — make the scheduler itself power-aware by preferring the
  // coldest row and refusing rows above the power ceiling. Protects like
  // Ampere but requires the power feed inside every placement decision.
  kPowerAwareSpread = 2,
};

struct SchedulerConfig {
  PlacementPolicy policy = PlacementPolicy::kRandomFit;
  // Random probes before falling back to a full scan.
  int sample_attempts = 16;
  // Pending-queue entries examined per drain pass (bounds head-of-line
  // blocking without unbounded work per event).
  size_t queue_scan_limit = 64;
  // A drain pass also stops after this many failed placement attempts: when
  // the cluster is saturated, almost every queued job fails with a full
  // scan each, and one completion frees room for at most a few jobs anyway.
  size_t drain_failure_limit = 2;
  // kConcentrateRows stops packing a row once its power exceeds this
  // fraction of the row budget.
  double concentrate_power_ceiling = 0.92;
};

class Scheduler : public JobSink {
 public:
  // `dc` must outlive the scheduler. The scheduler installs itself as the
  // data center's task-completion listener.
  Scheduler(DataCenter* dc, const SchedulerConfig& config, Rng rng);

  // --- Job intake (upper level) ---
  void Submit(const JobSpec& job) override;

  // Removes and returns up to `max_jobs` pending jobs, oldest first — the
  // campus spillover hook: when frozen capacity starves this DC's queue, a
  // federation coordinator takes queued work and re-Submits it to a sibling
  // DC's scheduler. Jobs with a row affinity are pinned to this DC's rows
  // and are skipped (they stay queued in their original order). Counted in
  // jobs_spilled_out(); a re-Submit elsewhere increments that scheduler's
  // jobs_submitted(), so campus-level accounting reports spill counts
  // alongside the per-DC submit totals.
  std::vector<JobSpec> TakePending(size_t max_jobs);
  uint64_t jobs_spilled_out() const { return jobs_spilled_out_; }

  // Metrics domain this scheduler's counters are scoped under ("dc0/" in a
  // campus; root, 0, standalone). Controller-driven freeze/unfreeze RPCs
  // inherit the controller's scope instead. Observation-only.
  void SetObsDomain(obs::DomainId domain) { obs_domain_ = domain; }
  obs::DomainId obs_domain() const { return obs_domain_; }

  // --- The power-control interface (the paper's two APIs) ---
  // Thin passthroughs to the low level (ResourceManager), which owns them;
  // Unfreeze additionally re-drains the pending queue since capacity
  // returned to the candidate list.
  void Freeze(ServerId id);
  void Unfreeze(ServerId id);
  bool IsFrozen(ServerId id) const { return rm_.IsFrozen(id); }

  // Fallible variants for fault-aware callers: each RPC attempt may fail per
  // the attached injector's plan; the scheduler retries up to the plan's
  // rpc_max_attempts with exponential backoff (rpc_backoff_base * 2^k after
  // the k-th failure). On overall failure the freeze/unfreeze does NOT take
  // effect and the caller decides how to degrade. Without an injector these
  // are exactly Freeze/Unfreeze: first attempt, zero latency.
  RpcResult TryFreeze(ServerId id);
  RpcResult TryUnfreeze(ServerId id);

  // Attaches a fault injector driving TryFreeze/TryUnfreeze failures (null
  // detaches). `injector` must outlive the scheduler.
  void AttachFaultInjector(faults::FaultInjector* injector) {
    injector_ = injector;
  }

  // The low level, for callers that want the §2.1 split explicitly.
  ResourceManager& resource_manager() { return rm_; }

  // --- Introspection / metrics ---
  uint64_t jobs_submitted() const { return jobs_submitted_; }
  uint64_t jobs_placed() const { return jobs_placed_; }
  uint64_t jobs_completed() const { return jobs_completed_; }
  size_t queue_length() const { return pending_.size(); }
  uint64_t placements_in_row(RowId row) const {
    return row_placements_[row.index()];
  }

  // Invoked on every successful placement with (job, server).
  void SetPlacementListener(std::function<void(const JobSpec&, ServerId)> cb) {
    placement_listener_ = std::move(cb);
  }
  // Invoked on every task completion with (server, job).
  void SetCompletionListener(std::function<void(ServerId, JobId)> cb) {
    completion_listener_ = std::move(cb);
  }

 private:
  // Runs one RPC through the injector's failure/latency model with the
  // bounded retry/backoff policy. Always succeeds without an injector.
  RpcResult RunRpc();
  bool Eligible(ServerId id, const JobSpec& job) const;
  // Returns the chosen server or an invalid id.
  ServerId PickServer(const JobSpec& job);
  ServerId PickRandomFit(const JobSpec& job);
  ServerId PickRowOrdered(const JobSpec& job, bool hottest_first);
  ServerId ScanFrom(size_t start, const JobSpec& job) const;
  bool TryPlace(const JobSpec& job);
  void DrainQueue();
  void OnTaskCompleted(ServerId server, JobId job);

  DataCenter* dc_;
  ResourceManager rm_;
  SchedulerConfig config_;
  Rng rng_;
  faults::FaultInjector* injector_ = nullptr;
  obs::DomainId obs_domain_ = 0;
  std::deque<JobSpec> pending_;
  // Set when a random-fit placement's probes all miss, cleared when one
  // hits: while set, PickRandomFit tests the free-capacity root before
  // probing. A performance hint only; no result depends on it.
  bool saturated_ = false;
  uint64_t jobs_submitted_ = 0;
  uint64_t jobs_placed_ = 0;
  uint64_t jobs_completed_ = 0;
  uint64_t jobs_spilled_out_ = 0;
  std::vector<uint64_t> row_placements_;
  // PickRowOrdered's row ranking, kept so a placement allocates nothing.
  std::vector<RowId> row_order_;
  std::function<void(const JobSpec&, ServerId)> placement_listener_;
  std::function<void(ServerId, JobId)> completion_listener_;
};

}  // namespace ampere

#endif  // SRC_SCHED_SCHEDULER_H_
