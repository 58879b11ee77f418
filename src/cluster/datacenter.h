// The data-center model: rows of racks of servers, task execution, power
// aggregation, and the RAPL safety net.
//
// DataCenter is the single mutation point for servers so that per-rack,
// per-row and total power stay incrementally consistent (O(1) per event).
// The scheduler places tasks through PlaceTask and consults frozen(); the
// telemetry monitor reads the power accessors; the capping model reacts to
// every power-affecting event within the same simulated instant, mirroring
// RAPL's sub-millisecond reaction (§2.1).

#ifndef SRC_CLUSTER_DATACENTER_H_
#define SRC_CLUSTER_DATACENTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/ids.h"
#include "src/obs/metrics.h"
#include "src/power/breaker.h"
#include "src/power/dvfs.h"
#include "src/power/power_model.h"
#include "src/sim/simulation.h"

namespace ampere {

// How the RAPL safety net divides a row's enforcement budget.
enum class CappingMode : int {
  // One uniform DVFS step for every server in the row whenever the row
  // total exceeds its budget (coordinated row-level capping).
  kRowUniform = 0,
  // Each server gets a static share (row budget / n servers) and is
  // individually throttled when its own draw exceeds that share — how
  // fleet RAPL deployments actually assign limits, and what makes the
  // paper's "54 % of servers capped" statistic per-server meaningful.
  kPerServer = 1,
};

struct TopologyConfig {
  int num_rows = 1;
  int racks_per_row = 10;
  int servers_per_rack = 42;  // ~420 per row, matching the 400+ server row.
  Resources server_capacity{16.0, 64.0};
  PowerModelParams power_model;
  // Optional mixed-generation fleet: racks cycle through these power models
  // (racks are purchased and racked as homogeneous units; rows accumulate
  // generations over years). Empty = homogeneous fleet using `power_model`.
  std::vector<PowerModelParams> server_generations;
  // Power budgets; 0 means "rated provisioning": budget = n * rated watts
  // (the conservative baseline the paper starts from, rO = 0).
  double row_budget_watts = 0.0;
  double rack_budget_watts = 0.0;
  // Hardware power capping (the safety net). Disabled by default: the
  // paper's controlled experiments switch it off to observe true demand.
  bool capping_enabled = false;
  CappingMode capping_mode = CappingMode::kRowUniform;
  DvfsLadder ladder;
  BreakerParams breaker;
  // Sleep-state model (§5.1 baseline): draw while asleep as a fraction of
  // rated power, and the boot time from sleep to schedulable.
  double sleep_fraction = 0.06;
  SimTime wake_latency = SimTime::Seconds(30);
};

// Task completions are typed events (Simulation::ScheduleTargetAt) over a
// dense per-DC task pool: the queue entry names a pool record, and the
// DataCenter is the EventTarget that checks and fires it.
class DataCenter final : private EventTarget {
 public:
  // `sim` must outlive the DataCenter.
  DataCenter(const TopologyConfig& config, Simulation* sim);

  DataCenter(const DataCenter&) = delete;
  DataCenter& operator=(const DataCenter&) = delete;

  // --- Topology ---
  int num_rows() const { return static_cast<int>(rows_.size()); }
  int num_racks() const { return static_cast<int>(racks_.size()); }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  const Server& server(ServerId id) const { return servers_[id.index()]; }
  std::span<const ServerId> servers_in_row(RowId row) const {
    return rows_[row.index()].servers;
  }
  std::span<const ServerId> servers_in_rack(RackId rack) const {
    return racks_[rack.index()].servers;
  }
  std::span<const RackId> racks_in_row(RowId row) const {
    return rows_[row.index()].racks;
  }
  RowId row_of(ServerId id) const { return servers_[id.index()].row(); }

  // --- SoA power core ---
  // The per-server hot state (current draw, dynamic-at-full-frequency draw,
  // utilization) lives in contiguous arrays indexed by server id; Server
  // objects hold slot pointers into them (see Server::AttachSoaSlots).
  // Topology construction assigns server ids row-major (row 0's racks, then
  // row 1's, ...), so every row and every rack owns one CONTIGUOUS index
  // range. Batch consumers (the telemetry sampler, the exact resummation
  // pass) stream these spans instead of walking Server objects.
  std::span<const double> server_power_soa() const { return soa_power_watts_; }
  std::span<const double> server_dynamic_full_soa() const {
    return soa_dynamic_full_watts_;
  }
  std::span<const double> server_utilization_soa() const {
    return soa_utilization_;
  }
  // Half-open [begin, end) server-index ranges; CHECKed contiguous at
  // construction.
  struct IndexRange {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };
  IndexRange server_range_of_row(RowId id) const {
    return rows_[id.index()].server_range;
  }
  IndexRange server_range_of_rack(RackId id) const {
    return racks_[id.index()].server_range;
  }

  // --- Candidate-list free-capacity index ---
  // Free capacity (capacity − allocated) of every candidate server
  // (Server::SchedulableState()), indexed by server id; −inf on both axes
  // for a non-candidate. `schedulable_free()[i].Fits(demand)` is therefore
  // exactly "server i is a candidate and has room", read from one dense
  // array instead of Server objects.
  std::span<const Resources> schedulable_free() const {
    return {schedulable_free_.data(), servers_.size()};
  }
  // Per-axis maxima over schedulable_free(), the root of a max tree over
  // it. A demand that does not fit these fits no candidate: float addition
  // is monotone, so d > max + eps implies d > free_i + eps for every server.
  // Mutations only write their entry (and, once the tree exists, note its
  // block); the tree is built on the first call and catches up on later
  // calls from the blocks written since. Only a random-fit scheduler whose
  // probes have missed asks (see Scheduler::PickRandomFit), so a DC that
  // never saturates never builds it.
  const Resources& MaxSchedulableFree();
  // The first server at or after `origin` in circular order (origin ..
  // n − 1, then 0 .. origin − 1) whose schedulable_free() entry fits
  // `demand`, or an invalid id: exactly a linear first-fit scan, found by
  // descending the max tree and skipping every subtree whose per-axis
  // maxima rule the demand out. Requires the tree to be current, i.e. no
  // mutation since the last MaxSchedulableFree().
  ServerId FirstSchedulableFit(size_t origin, const Resources& demand) const;

  // --- Task execution ---
  // Places a task; returns false (and does nothing) if it does not fit.
  // Placement on a frozen server is allowed at this layer — respecting the
  // frozen flag is the scheduler's contract, and keeping the layers honest
  // lets tests verify the scheduler actually honors it.
  bool PlaceTask(ServerId id, const TaskSpec& spec);

  // Marks/unmarks a server as frozen. Purely advisory state read by the
  // scheduler's low level; running tasks are unaffected (§3.4).
  void SetFrozen(ServerId id, bool frozen);

  // Dedicates a server to a static service; the scheduler skips it.
  void SetReserved(ServerId id, bool reserved);

  // --- Sleep states (§5.1 PowerNap-style baseline) ---
  // Puts an idle server to sleep (requires no running tasks; throws
  // otherwise). Power drops to the sleep floor immediately.
  void SleepServer(ServerId id);
  // Begins waking a sleeping server: power rises to idle immediately (boot
  // draw) and the server becomes schedulable after wake_latency. No-op if
  // the server is already awake or waking.
  void WakeServer(ServerId id);

  // Task-pool records ever created: the high-water mark of concurrently
  // running tasks (introspection for tests and benches).
  size_t task_pool_size() const { return tasks_.size(); }

  // Invoked whenever a task completes; receives (server, job).
  void SetTaskCompletionListener(std::function<void(ServerId, JobId)> cb) {
    completion_listener_ = std::move(cb);
  }

  // --- Power ---
  double server_power_watts(ServerId id) const {
    return servers_[id.index()].power_watts();
  }
  double rack_power_watts(RackId id) const {
    return racks_[id.index()].power_watts;
  }
  double row_power_watts(RowId id) const { return rows_[id.index()].power_watts; }
  double total_power_watts() const { return total_power_watts_; }
  double PowerOfServers(std::span<const ServerId> ids) const;

  // Exact (freshly summed) counterparts of the incremental aggregates above.
  // The incremental values drift from these by accumulated float rounding —
  // one ulp-scale error per mutation — which the periodic resummation
  // (ResummatePowerAggregates) snaps away; tests compare the two to bound
  // the drift between snaps.
  double ExactRackPowerWatts(RackId id) const;
  double ExactRowPowerWatts(RowId id) const;
  double ExactRowDynamicFullWatts(RowId id) const;
  double ExactTotalPowerWatts() const;
  // Recomputes every rack/row/total aggregate exactly from the per-server
  // power caches. Called automatically every kResumIntervalMutations
  // power-affecting mutations; public so tests (and long-running drivers)
  // can snap on demand. Summation order is fixed (servers in id order
  // within rack, racks in id order within row, rows in id order), so the
  // result is deterministic.
  void ResummatePowerAggregates();
  // Number of power-affecting mutations folded into the aggregates since
  // the last resummation (diagnostic; exposed for the drift test).
  uint64_t power_mutations_since_resum() const {
    return power_mutations_since_resum_;
  }
  // Aggregates are resummed exactly every this many incremental updates.
  // At ~65k mutations the worst-case accumulated drift on a row aggregate
  // is orders of magnitude below the 1e-9 W tolerance the drift test
  // asserts, while the resummation cost (one pass over the fleet) amortizes
  // to well under a nanosecond per mutation.
  static constexpr uint64_t kResumIntervalMutations = 1ULL << 16;

  double row_budget_watts(RowId id) const { return rows_[id.index()].budget_watts; }
  double rack_budget_watts(RackId id) const {
    return racks_[id.index()].budget_watts;
  }
  double total_budget_watts() const;

  // --- Capping (RAPL safety net) ---
  void SetCappingEnabled(bool enabled);
  // Overrides the enforcement budget of one row (e.g. scaled budgets in the
  // over-provisioning emulation of §4.1.2).
  void SetRowCappingBudget(RowId id, double watts);
  double row_throttle(RowId id) const { return rows_[id.index()].throttle; }
  bool IsServerCapped(ServerId id) const {
    return servers_[id.index()].frequency() < 1.0;
  }
  // Fraction of a row's servers currently throttled (§4.3's statistic).
  double FractionOfServersCapped(RowId id) const;
  // Cumulative simulated time this row spent throttled (any step < 1.0 for
  // kRowUniform; any server < 1.0 counts the row as capped for kPerServer).
  SimTime row_capped_time(RowId id) const;

  // --- Breaker ---
  // True if any row's breaker has tripped (sustained overload with capping
  // off or insufficient).
  bool AnyBreakerTripped() const;

  // Metrics/timeline domain for this DC's instrumentation ("dc1/" in a
  // campus; root, 0, standalone). Observation-only: it labels flight
  // recorder breaker events, never alters simulation behaviour.
  void SetObsDomain(obs::DomainId domain) { obs_domain_ = domain; }
  obs::DomainId obs_domain() const { return obs_domain_; }

  Simulation* sim() const { return sim_; }
  // The primary (first-generation) power model. Heterogeneous fleets have
  // per-server models; use server(id) accessors for those.
  const ServerPowerModel& power_model() const { return models_.front(); }
  size_t num_generations() const { return models_.size(); }

 private:
  struct RackState {
    std::vector<ServerId> servers;
    RowId row;
    IndexRange server_range;  // Contiguous ids, ascending.
    double power_watts = 0.0;
    double budget_watts = 0.0;
  };
  struct RowState {
    std::vector<ServerId> servers;
    std::vector<RackId> racks;
    IndexRange server_range;  // Contiguous ids, ascending.
    double power_watts = 0.0;
    double budget_watts = 0.0;           // Physical / provisioned.
    double capping_budget_watts = 0.0;   // Enforcement target for RAPL.
    double idle_sum_watts = 0.0;         // Static.
    double dynamic_full_sum_watts = 0.0; // Sum of dynamic draw at f = 1.0.
    double throttle = 1.0;               // kRowUniform step.
    size_t capped_server_count = 0;
    CircuitBreaker breaker;
    SimTime capped_since;
    SimTime capped_total;
  };

  // One running task. Records live in the dense pool tasks_ and are
  // recycled through free_tasks_; Server::TaskTable names them by index.
  struct TaskRecord {
    ServerId server;
    JobId job;
    uint64_t seq = kFreeTask;  // Its queued completion; kFreeTask if free.
    Resources demand;
    SimTime remaining_work;  // At full frequency.
    SimTime last_update;     // When remaining_work was last reconciled.
  };
  // Seq value of a free record; never minted (seqs are below 2^kSeqBits).
  static constexpr uint64_t kFreeTask = ~uint64_t{0};

  // EventTarget: a queued completion is live while its record still holds
  // the seq it was queued with.
  bool Live(uint32_t index, uint64_t seq) const override {
    return tasks_[index].seq == seq;
  }
  void Fire(uint32_t index) override { CompleteTask(index); }

  void CompleteTask(uint32_t index);
  // Rewrites server `id`'s free-capacity entry and queues its block for the
  // max tree (see MaxSchedulableFree). Called after every mutation of
  // allocated_/frozen_/reserved_/asleep_/waking_, all of which happen in
  // this class.
  void RefreshSchedulable(ServerId id);
  // The max tree's leaves are blocks of kFreeBlock consecutive entries, so
  // the bottom of a descent is one short loop over contiguous entries
  // instead of four levels of tree nodes. Node b + p is block b's per-axis
  // max, p = free_max_.size() / 2 the block count, a power of two (the
  // entries are padded to p blocks); inner nodes are [1, p), node k's
  // children are 2k and 2k + 1, so node 1 is the root and every node
  // covers one contiguous entry range, in order.
  static constexpr size_t kFreeBlock = 16;
  // Per-axis max over block `block`'s entries.
  Resources BlockMax(size_t block) const;
  // The first entry of block `block`, from its `from`-th on, that fits
  // `demand`, or schedulable_free_.size() if none does.
  size_t FirstFitInBlock(size_t block, size_t from,
                         const Resources& demand) const;
  // The first entry at or after `begin` that fits `demand`, or
  // schedulable_free_.size() if none does (see FirstSchedulableFit).
  size_t FirstFitFrom(size_t begin, const Resources& demand) const;
  // Recomputes a server's power and folds the delta into aggregates.
  void RefreshServerPower(ServerId id, double old_power, double old_dynamic);
  // Applies the RAPL decision for a row if its throttle step changed
  // (kRowUniform) and feeds the breaker; in kPerServer mode only the
  // breaker observes here.
  void EnforceRowCap(RowId row_id);
  // kPerServer enforcement for one server against its static share.
  void EnforceServerCap(ServerId id);
  // Sets a server's frequency, reconciling all running tasks' remaining work
  // and rescheduling their completions; maintains the row's capped-server
  // count and capped-time clock.
  void SetServerFrequency(ServerId id, double freq);
  // The power-free part of a frequency change, shared by the per-server and
  // per-row paths: the row's capped-server count and capped-time clock on
  // 1.0 crossings, then each running task in task-table order consumes its
  // work at the old frequency and has its completion rescheduled at the new
  // one, then the new frequency is stored. Requires freq != the current.
  void RetimeServer(Server& server, RowState& row, double freq);
  // Bulk counterpart of SetServerFrequency for a whole row at one uniform
  // frequency — the shape of every kRowUniform enforcement step and of the
  // capping release path. Per-server bookkeeping (capped-count crossings,
  // task reconciliation, completion rescheduling) runs in the same ascending
  // id order as the per-server loop it replaces, so the event sequence is
  // unchanged; the power refresh then happens per RACK as one batched
  // power-model evaluation over the rack's contiguous SoA span, with rack
  // sums rebuilt by the fixed blocked-order reduction (span_kernels.h).
  // Falls back to per-server SetServerFrequency whenever any server in the
  // fleet is asleep/waking (their draw is the sleep floor, not the model's
  // output). Aggregates may differ from the incremental path by float
  // rounding only (different association order) — never observed by a
  // golden, and bounded by the periodic resummation like every other path.
  void ApplyRowFrequency(RowId row_id, double freq);
  double PerServerCapWatts(const RowState& row) const {
    return row.capping_budget_watts /
           static_cast<double>(row.servers.size());
  }

  Simulation* sim_;
  uint32_t event_target_;  // This DC's id for sim_->ScheduleTargetAt.
  // Owns one model per generation; servers point into this vector, which is
  // never resized after construction.
  std::vector<ServerPowerModel> models_;
  // SoA power core (see the accessor block above). Sized once at
  // construction; never resized, so Server slot pointers stay valid.
  std::vector<double> soa_power_watts_;
  std::vector<double> soa_dynamic_full_watts_;
  std::vector<double> soa_utilization_;
  // Free-capacity index (see schedulable_free()), padded with −inf entries
  // to a power-of-two number of blocks, and the per-axis max tree over its
  // blocks (see kFreeBlock; empty until first use).
  std::vector<Resources> schedulable_free_;
  std::vector<Resources> free_max_;
  // Blocks written since the last MaxSchedulableFree(), each listed once
  // (stale_block_ marks the listed ones). Unused until the tree is built.
  std::vector<size_t> stale_blocks_;
  std::vector<uint8_t> stale_block_;
  DvfsLadder ladder_;
  bool capping_enabled_;
  CappingMode capping_mode_;
  double sleep_watts_ = 0.0;
  SimTime wake_latency_;
  std::vector<Server> servers_;
  std::vector<RackState> racks_;
  std::vector<RowState> rows_;
  double total_power_watts_ = 0.0;
  uint64_t power_mutations_since_resum_ = 0;
  // Servers currently asleep or waking (their cached power is the sleep
  // floor, not a model evaluation). Nonzero routes ApplyRowFrequency onto
  // its exact per-server fallback.
  size_t asleep_servers_ = 0;
  obs::DomainId obs_domain_ = 0;
  std::function<void(ServerId, JobId)> completion_listener_;
  // Task pool: one record per running task, indexed by the typed
  // completion events, plus the free records' indices.
  std::vector<TaskRecord> tasks_;
  std::vector<uint32_t> free_tasks_;
};

}  // namespace ampere

#endif  // SRC_CLUSTER_DATACENTER_H_
