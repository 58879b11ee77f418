// The scheduler's low level (§2.1).
//
// "It is a two-level scheduler. The low level tracks the status of
// resources, bundles them into abstract resource containers and provides
// the containers to the upper level. ... Freeze and unfreeze are two APIs
// provided by the lower level of the job scheduler."
//
// ResourceManager owns exactly that role: the candidate list (which servers
// may be offered), container claims (binding a job's resources to a
// server), and the freeze/unfreeze interface Ampere consumes. Upper-level
// placement policies (see Scheduler) only ever ask "is this server a
// candidate?" and "claim this container" — they never mutate server state
// directly.

#ifndef SRC_SCHED_RESOURCE_MANAGER_H_
#define SRC_SCHED_RESOURCE_MANAGER_H_

#include <cstdint>

#include "src/cluster/datacenter.h"

namespace ampere {

class ResourceManager {
 public:
  // `dc` must outlive the manager.
  explicit ResourceManager(DataCenter* dc);

  // --- The power-control interface (the paper's two APIs) ---
  // Freezing removes a server from the candidate list; running containers
  // are unaffected. Unfreezing restores it.
  void Freeze(ServerId id);
  void Unfreeze(ServerId id);
  bool IsFrozen(ServerId id) const { return dc_->server(id).frozen(); }

  // --- Candidate list ---
  // A candidate is schedulable: not frozen, not reserved for a dedicated
  // service, awake, and fully booted.
  bool IsCandidate(ServerId id) const {
    return dc_->server(id).SchedulableState();
  }
  // Candidate AND has room for `demand`. Reads the data center's
  // free-capacity index, whose entry is −inf for a non-candidate.
  bool CanHost(ServerId id, const Resources& demand) const {
    return dc_->schedulable_free()[id.index()].Fits(demand);
  }

  // --- Container claims ---
  // Binds the container described by `spec` to `id` and starts execution.
  // Returns false if the server is not a candidate or lacks resources.
  bool ClaimContainer(ServerId id, const TaskSpec& spec);

  uint64_t containers_claimed() const { return containers_claimed_; }
  uint64_t freeze_calls() const { return freeze_calls_; }
  uint64_t unfreeze_calls() const { return unfreeze_calls_; }

  DataCenter& dc() { return *dc_; }
  const DataCenter& dc() const { return *dc_; }

 private:
  DataCenter* dc_;
  uint64_t containers_claimed_ = 0;
  uint64_t freeze_calls_ = 0;
  uint64_t unfreeze_calls_ = 0;
};

}  // namespace ampere

#endif  // SRC_SCHED_RESOURCE_MANAGER_H_
