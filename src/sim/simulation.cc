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
  targets_.push_back(Target{target});
  return static_cast<uint32_t>(targets_.size() - 1);
}

uint32_t Simulation::RegisterStream(EventTarget* target) {
  AMPERE_CHECK(target != nullptr);
  streams_.push_back(Stream{target, {}});
  return static_cast<uint32_t>(streams_.size() - 1);
}

void Simulation::FireHeapHead() {
  const QueueEntry entry = heap_.front();
  HeapPop();
  --live_events_;
  AMPERE_CHECK(entry.time >= now_);
  now_ = entry.time;
  ++processed_events_;
  if (entry.typed()) {
    // The new head's record is the next Live()'s miss; start it now, so it
    // overlaps this event's Fire(). (Written out here: GCC deletes a call
    // to a function whose only effect is a prefetch.)
    if (!heap_.empty() && heap_.front().typed()) {
      const QueueEntry& next = heap_.front();
      if (const void* record = target_record(next.target(), next.index())) {
        PrefetchBytes(record, targets_[next.target()].record_stride);
      }
    }
    // The target's own record is the event's state; Fire() retires it.
    targets_[entry.target()].target->Fire(entry.index());
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

void Simulation::FireStreamHead() {
  Stream& stream = streams_[head_stream_];
  const QueueEntry entry = stream.queue.front();
  stream.queue.pop_front();
  // Re-elect before firing, so appends from inside Fire() see a current
  // head_stream_. Stream heads never tie: seqs are unique.
  head_stream_ = kNoStream;
  for (uint32_t s = 0; s < streams_.size(); ++s) {
    RingQueue<QueueEntry>& queue = streams_[s].queue;
    if (!queue.empty() &&
        (head_stream_ == kNoStream ||
         Earlier(queue.front(), streams_[head_stream_].queue.front()))) {
      head_stream_ = s;
    }
  }
  --live_events_;
  AMPERE_CHECK(entry.time >= now_);
  now_ = entry.time;
  ++processed_events_;
  stream.target->Fire(entry.index());
}

bool Simulation::Step() {
  const Source source = NextSource();
  if (source == Source::kNone) {
    return false;
  }
  Fire(source);
  return true;
}

void Simulation::RunUntil(SimTime until) {
  AMPERE_CHECK(until >= now_);
  // One span per drain, not per event: the event loop is far too hot for
  // per-event instrumentation, so RunUntil reports the wall time of the
  // whole drain plus a delta counter of events processed inside it.
  AMPERE_SPAN("sim.run_until");
  const uint64_t processed_before = processed_events_;
  // NextSource() discards stale heap heads before the boundary test: a
  // stale head may lie before `until` while the next live event lies
  // beyond it.
  for (Source source = NextSource();
       source != Source::kNone && NextTime(source) <= until;
       source = NextSource()) {
    Fire(source);
  }
  now_ = until;
  AMPERE_COUNTER_ADD("sim.events", processed_events_ - processed_before);
}

void Simulation::RunToCompletion() {
  while (Step()) {
  }
}

}  // namespace ampere
