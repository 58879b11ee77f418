#include "src/sim/simulation.h"

#include <memory>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

void Simulation::EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(slot_, seq_);
  }
}

bool Simulation::EventHandle::pending() const {
  return sim_ != nullptr && sim_->EventPending(slot_, seq_);
}

void Simulation::CancelEvent(uint32_t slot_index, uint64_t seq) {
  if (slot_index >= slots_.size()) {
    return;
  }
  if (slots_[slot_index].seq != seq) {
    // Already fired, already cancelled, or the slot was recycled for a newer
    // event: nothing to do.
    return;
  }
  // O(1) cancel: stale the handle/queue-entry generation and recycle the
  // slot immediately. The queue entry stays behind and is discarded (by the
  // generation mismatch) when it reaches the head.
  RetireSlot(slot_index);
  --live_events_;
}

void Simulation::SchedulePeriodic(SimTime start, SimTime interval,
                                  std::function<void(SimTime)> callback) {
  AMPERE_CHECK(interval > SimTime()) << "non-positive period";
  // The self-rescheduling closure owns the user callback; each firing queues
  // the next one, so the task survives indefinitely. The user callback sits
  // behind one shared_ptr allocated here, once — the per-fire re-arm closure
  // (40 bytes) fits the pooled slots' inline buffer, so steady-state
  // periodic ticks are allocation-free.
  auto cb = std::make_shared<std::function<void(SimTime)>>(std::move(callback));
  struct Rearm {
    Simulation* sim;
    SimTime interval;
    std::shared_ptr<std::function<void(SimTime)>> cb;
    void Fire(SimTime nominal) const {
      (*cb)(nominal);
      Rearm next = *this;
      sim->ScheduleAt(nominal + interval,
                      [next, at = nominal + interval] { next.Fire(at); });
    }
  };
  Rearm rearm{this, interval, std::move(cb)};
  ScheduleAt(start, [rearm, start] { rearm.Fire(start); });
}

uint32_t Simulation::RegisterTarget(EventTarget* target) {
  AMPERE_CHECK(target != nullptr);
  AMPERE_CHECK(targets_.size() < kMaxTargets)
      << "event target overflow: at most " << kMaxTargets << " targets";
  targets_.push_back(target);
  return static_cast<uint32_t>(targets_.size() - 1);
}

void Simulation::FireHead() {
  const QueueEntry entry = heap_.front();
  HeapPop();
  --live_events_;
  AMPERE_CHECK(entry.time >= now_);
  now_ = entry.time;
  ++processed_events_;
  if (entry.typed()) {
    // The target's own record is the event's state; Fire() retires it.
    targets_[entry.target()]->Fire(entry.index());
    return;
  }
  Slot& slot = slots_[entry.slot()];
  // Clear the seq token before invoking: the event is now "fired", so a
  // Cancel() or pending() from inside its own callback behaves like the
  // old shared-state handles (no-op / false). The slot is only returned
  // to the free list after the callback finishes, so events scheduled by
  // the callback cannot alias the still-running slot.
  slot.seq = kNoEvent;
  try {
    slot.callback.Invoke();
  } catch (...) {
    slot.callback.Reset();
    free_list_.push_back(entry.slot());
    throw;
  }
  slot.callback.Reset();
  free_list_.push_back(entry.slot());
}

bool Simulation::Step() {
  while (!heap_.empty()) {
    if (EntryStale(heap_.front())) {
      // Cancelled or rescheduled: the live-event count was settled then.
      HeapPop();
      continue;
    }
    FireHead();
    return true;
  }
  return false;
}

void Simulation::RunUntil(SimTime until) {
  AMPERE_CHECK(until >= now_);
  // One span per drain, not per event: the event loop is far too hot for
  // per-event instrumentation, so RunUntil reports the wall time of the
  // whole drain plus a delta counter of events processed inside it.
  AMPERE_SPAN("sim.run_until");
  const uint64_t processed_before = processed_events_;
  while (!heap_.empty()) {
    // Discard stale entries before the boundary test: a stale head may lie
    // before `until` while the next live event lies beyond it.
    if (EntryStale(heap_.front())) {
      HeapPop();
      continue;
    }
    if (heap_.front().time > until) {
      break;
    }
    FireHead();
  }
  now_ = until;
  AMPERE_COUNTER_ADD("sim.events", processed_events_ - processed_before);
}

void Simulation::RunToCompletion() {
  while (Step()) {
  }
}

void Simulation::ReserveEvents(size_t expected_live) {
  free_list_.reserve(expected_live);
  heap_.reserve(expected_live);
  while (slots_.size() < expected_live) {
    slots_.emplace_back();
    free_list_.push_back(static_cast<uint32_t>(slots_.size() - 1));
  }
}

}  // namespace ampere
