// A single server: resource capacity, running tasks, DVFS state, power draw.
//
// Mutations (task placement/completion, freezing, frequency changes) go
// through DataCenter so that rack/row power aggregates stay consistent;
// Server itself only exposes read access plus bookkeeping used by its owner.

#ifndef SRC_CLUSTER_SERVER_H_
#define SRC_CLUSTER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/resources.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/power/power_model.h"
#include "src/sim/simulation.h"

namespace ampere {

// A unit of work bound for one server. `work` is the task's duration at full
// frequency; DVFS throttling stretches wall-clock completion accordingly.
struct TaskSpec {
  JobId job;
  Resources demand;
  SimTime work;
};

class DataCenter;

class Server {
 public:
  // Running tasks a server holds without heap storage; more spill to the
  // heap. Mean occupancy on the paper's 16-core servers is ~4.4 tasks.
  static constexpr size_t kInlineTasks = 8;

  Server(ServerId id, RackId rack, RowId row, Resources capacity,
         const ServerPowerModel* power_model);

  ServerId id() const { return id_; }
  RackId rack() const { return rack_; }
  RowId row() const { return row_; }

  const Resources& capacity() const { return capacity_; }
  const Resources& allocated() const { return allocated_; }
  Resources Available() const { return capacity_ - allocated_; }
  bool CanFit(const Resources& demand) const {
    return Available().Fits(demand);
  }

  // CPU utilization in [0, 1]; this drives the power model.
  double utilization() const {
    return capacity_.cpu_cores > 0.0
               ? allocated_.cpu_cores / capacity_.cpu_cores
               : 0.0;
  }

  bool frozen() const { return frozen_; }
  // Reserved servers host dedicated services (e.g. the Fig. 11 Redis pool)
  // and are excluded from the batch scheduler's candidate list.
  bool reserved() const { return reserved_; }
  // Sleep states (the §5.1 PowerNap-style baseline): an asleep server draws
  // only its sleep floor and cannot host tasks; a waking server already
  // draws idle power but is not yet schedulable.
  bool asleep() const { return asleep_; }
  bool waking() const { return waking_; }
  // Convenience: can the scheduler's low level offer this server?
  bool SchedulableState() const {
    return !frozen_ && !reserved_ && !asleep_ && !waking_;
  }
  double frequency() const { return frequency_; }
  size_t num_tasks() const { return tasks_.size(); }

  // Instantaneous draw at the current operating point. Cached: recomputed by
  // the owning DataCenter (RecomputePowerCache) on every power-affecting
  // mutation, so the telemetry monitor's per-server read is one load instead
  // of a power-model evaluation. The cached value is the same pure function
  // of (asleep, utilization, frequency) the model would return on demand.
  //
  // Storage is structure-of-arrays: the value lives in the owning
  // DataCenter's contiguous per-server power array (indexed by server id),
  // and the server holds a handle (slot pointer) into it. Batch consumers —
  // the sharded telemetry sampler, the periodic exact resummation — stream
  // the arrays directly instead of hopping across Server objects (which are
  // large: the task table dominates); these accessors are the AoS-style
  // view for everyone else.
  double power_watts() const { return *soa_power_watts_; }
  // Dynamic (above-idle) draw the server would have at full frequency; row
  // capping decisions aggregate this. Cached alongside power_watts().
  double dynamic_watts_at_full_freq() const {
    return *soa_dynamic_full_watts_;
  }
  double idle_watts() const { return power_model_->idle_watts(); }
  double rated_watts() const { return power_model_->rated_watts(); }

 private:
  friend class DataCenter;

  // Points this server's cached-power/dynamic reads at its slots in the
  // owning DataCenter's SoA arrays. Called once after the DataCenter has
  // sized the arrays (they never resize afterwards, so the pointers stay
  // valid for the server's lifetime).
  void AttachSoaSlots(double* power, double* dynamic_full) {
    soa_power_watts_ = power;
    soa_dynamic_full_watts_ = dynamic_full;
  }

  // Re-evaluates the power model at the current operating point. Called by
  // DataCenter after every mutation of asleep_/waking_/sleep_watts_/
  // allocated_/frequency_ (all of which funnel through DataCenter).
  void RecomputePowerCache() {
    if (asleep_) {
      *soa_power_watts_ = sleep_watts_;
      *soa_dynamic_full_watts_ = 0.0;
      return;
    }
    const double u = utilization();
    *soa_power_watts_ = power_model_->PowerAt(u, frequency_);
    *soa_dynamic_full_watts_ = power_model_->DynamicPowerAt(u, 1.0);
  }

  // Insertion-ordered running-task table: (job, index of the task's record
  // in the owning DataCenter's task pool) pairs. A server hosts a handful of
  // tasks (batch containers plus at most one resident service), so the
  // first kInlineTasks entries live inside the Server and a linear scan over
  // them beats a hash table: placement and completion touch no separately
  // allocated storage. A server hosting more spills the rest, in order, to
  // a heap vector allocated on its first spill. Iteration order is
  // insertion order: stable, deterministic, and independent of key values,
  // which the frequency-reconcile walk in DataCenter::SetServerFrequency
  // relies on for reproducible completion rescheduling.
  class TaskTable {
   public:
    static constexpr size_t kNotFound = static_cast<size_t>(-1);

    // The inline entries are left uninitialized: a DataCenter builds
    // thousands of servers, and only the count needs a value.
    TaskTable() {}

    // Invariant: entries spill only once the inline part is full.
    size_t size() const { return inline_size_ + spilled(); }
    bool empty() const { return inline_size_ == 0; }

    // Position of `job` in insertion order, or kNotFound.
    size_t Find(JobId job) const {
      for (size_t i = 0; i < inline_size_; ++i) {
        if (inline_[i].job == job.value()) {
          return i;
        }
      }
      for (size_t i = 0; i < spilled(); ++i) {
        if ((*spill_)[i].job == job.value()) {
          return kInlineTasks + i;
        }
      }
      return kNotFound;
    }

    // Appends (job, record); returns false if the job is already present.
    bool TryEmplace(JobId job, uint32_t record) {
      if (Find(job) != kNotFound) {
        return false;
      }
      if (inline_size_ < kInlineTasks) {
        inline_[inline_size_++] = Entry{job.value(), record};
      } else {
        if (spill_ == nullptr) {
          spill_ = std::make_unique<std::vector<Entry>>();
        }
        spill_->push_back(Entry{job.value(), record});
      }
      return true;
    }

    // Calls `f(record)` for each running task's pool index, in insertion
    // order.
    template <typename F>
    void ForEachRecord(F&& f) const {
      for (size_t i = 0; i < inline_size_; ++i) {
        f(inline_[i].record);
      }
      for (size_t i = 0; i < spilled(); ++i) {
        f((*spill_)[i].record);
      }
    }

    // Removes entry `i`, preserving the insertion order of the rest.
    void EraseAt(size_t i) {
      if (i >= kInlineTasks) {
        spill_->erase(spill_->begin() +
                      static_cast<std::ptrdiff_t>(i - kInlineTasks));
        return;
      }
      for (size_t j = i + 1; j < inline_size_; ++j) {
        inline_[j - 1] = inline_[j];
      }
      if (spilled() == 0) {
        --inline_size_;
        return;
      }
      // The oldest spilled entry moves up to keep the inline part full.
      inline_[kInlineTasks - 1] = spill_->front();
      spill_->erase(spill_->begin());
    }

   private:
    struct Entry {
      int32_t job;  // JobId::value().
      uint32_t record;
    };

    size_t spilled() const { return spill_ == nullptr ? 0 : spill_->size(); }

    uint32_t inline_size_ = 0;
    Entry inline_[kInlineTasks];  // First inline_size_ entries are set.
    // Behind a pointer so a server that never spills pays 8 bytes for it.
    std::unique_ptr<std::vector<Entry>> spill_;
  };

  ServerId id_;
  RackId rack_;
  RowId row_;
  bool frozen_ = false;
  bool reserved_ = false;
  bool asleep_ = false;
  bool waking_ = false;
  Resources capacity_;
  Resources allocated_;
  const ServerPowerModel* power_model_;  // Not owned; outlives the server.
  double frequency_ = 1.0;
  double sleep_watts_ = 0.0;  // Set by the owning DataCenter.
  // Slots into the owning DataCenter's SoA arrays (set by AttachSoaSlots
  // right after topology construction; never null once the DataCenter
  // constructor returns).
  double* soa_power_watts_ = nullptr;
  double* soa_dynamic_full_watts_ = nullptr;
  Simulation::EventHandle wake_completion_;
  TaskTable tasks_;
};

}  // namespace ampere

#endif  // SRC_CLUSTER_SERVER_H_
