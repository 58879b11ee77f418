// Discrete-event simulation engine.
//
// A single-threaded event core drives the data-center model: job arrivals
// and completions are point events, while the power monitor and the Ampere
// controller are periodic tasks on a one-minute cadence. Events fire in
// strict (time, seq) order, where seq is a counter minted once per schedule
// call, so the pop sequence is a pure function of the schedule calls.
//
// Three kinds of event share that order and that counter:
//
// - Closures (ScheduleAt/ScheduleAfter/SchedulePeriodic): periodic ticks,
//   wake-ups, one-off markers. Each lives in a slab of pooled slots recycled
//   through a free list, its callback in small-buffer storage sized for the
//   closures the model schedules, so the steady state allocates nothing per
//   event. Handles are generation-checked PODs: cancelling an already-fired,
//   already-cancelled or recycled event is a safe no-op, with cancel O(1).
// - Typed events (RegisterTarget/ScheduleTargetAt): task completions. The
//   queue entry holds only (target, index) and the seq; the owner keeps the
//   event's state in its own dense records, decides liveness by comparing
//   the seq it stored for `index` (EventTarget::Live) and runs the event
//   (EventTarget::Fire). No slot, callback or handle is involved, so a fleet
//   with tens of thousands of running tasks carries no per-task closure. An
//   owner that reschedules stores the new seq (the old entry turns stale)
//   and calls RetireTargetEvent().
//   A target may also publish where its records live
//   (PublishTargetRecords: record `index` occupies `stride` bytes at
//   base + index * stride). Each completion then costs two cache misses in
//   series, heap entry -> record -> whatever the record names, and the
//   published location lets the core start the first one early: after it
//   pops a typed head, it prefetches the new head's record, so the record
//   is on its way one event before Live() reads it. The owner keeps the
//   location current: it publishes again whenever its record storage moves
//   (a vector that reallocates). A stale location only loses the hint,
//   never a result, since a prefetch changes no value.
// - Stream events (RegisterStream/ScheduleStreamAt): job arrivals. An owner
//   that appends its events in non-decreasing time order gets a FIFO of its
//   own instead of heap entries: append order is (time, seq) order because
//   seqs only grow, so the FIFO head is the stream's earliest event and the
//   core only compares stream heads with the heap head. Stream events cannot
//   be cancelled; each one calls EventTarget::Fire exactly once.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/prefetch.h"
#include "src/common/ring_queue.h"
#include "src/common/time.h"

namespace ampere {

// The owner of a family of typed events (see Simulation::ScheduleTargetAt)
// or of an event stream (see Simulation::ScheduleStreamAt). `index` names
// one of the owner's records; `seq` is the value the schedule call returned
// for it. A target must outlive its queued events.
class EventTarget {
 public:
  // True if `seq` is still the event queued for record `index`, false once
  // the owner has fired, rescheduled or freed it. Never asked of a stream
  // event, which is always live.
  virtual bool Live(uint32_t index, uint64_t seq) const = 0;
  // Runs the event of record `index`; called only after Live() said true.
  virtual void Fire(uint32_t index) = 0;

 protected:
  ~EventTarget() = default;
};

class Simulation {
 public:
  using Callback = std::function<void()>;

  // A cancellable reference to a scheduled event. Default-constructed handles
  // are inert. Cancelling an already-fired or already-cancelled event is a
  // no-op, so owners can cancel unconditionally in destructors. Handles are
  // trivially copyable; a copied handle refers to the same event. The
  // Simulation must outlive any Cancel()/pending() call on a live handle
  // (every owner in the model is destroyed before its Simulation).
  class EventHandle {
   public:
    EventHandle() = default;

    void Cancel();
    // True if the event is still queued and will fire.
    bool pending() const;

   private:
    friend class Simulation;
    EventHandle(Simulation* sim, uint32_t slot, uint64_t seq)
        : sim_(sim), slot_(slot), seq_(seq) {}
    Simulation* sim_ = nullptr;
    uint32_t slot_ = 0;
    uint64_t seq_ = 0;
  };

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  size_t pending_events() const { return live_events_; }
  uint64_t processed_events() const { return processed_events_; }

  // Schedules `callback` at absolute time `at` (>= now()). Accepts any
  // nullary callable; closures up to the slot's inline buffer are stored
  // without touching the heap.
  template <typename F>
  EventHandle ScheduleAt(SimTime at, F&& callback) {
    CheckNotPast(at);
    const uint64_t seq = MintSeq();
    const uint32_t slot_index = AllocSlot();
    Slot& slot = slots_[slot_index];
    slot.callback.Emplace(std::forward<F>(callback));
    slot.seq = seq;
    HeapPush(QueueEntry{at, (seq << kLowBits) | slot_index});
    ++live_events_;
    return EventHandle(this, slot_index, seq);
  }

  // Schedules `callback` `delay` after the current time (delay >= 0).
  template <typename F>
  EventHandle ScheduleAfter(SimTime delay, F&& callback) {
    AMPERE_CHECK(delay >= SimTime()) << "negative delay";
    return ScheduleAt(now_ + delay, std::forward<F>(callback));
  }

  // Schedules `callback(fire_time)` every `interval` starting at `start`,
  // forever (periodic tasks run for the life of the simulation). The callback
  // receives the nominal fire time.
  void SchedulePeriodic(SimTime start, SimTime interval,
                        std::function<void(SimTime)> callback);

  // --- Typed events ---
  // Limits of the packed queue entry (see QueueEntry): at most kMaxTargets
  // registered targets, record indices below kMaxTargetIndex, and kMaxSeq
  // schedule calls over the simulation's life. Each is CHECKed.
  //
  // Headroom over the largest current tiers: 64 targets against a 4-DC
  // campus; 2M records per target against ~120k running tasks on the
  // 26,880-server tier; 2^36 seqs against ~7M events per simulated
  // hyperscale day.
  static constexpr int kTargetBits = 6;
  static constexpr int kTargetIndexBits = 21;
  static constexpr int kLowBits = 1 + kTargetBits + kTargetIndexBits;
  static constexpr int kSeqBits = 64 - kLowBits;
  static constexpr size_t kMaxTargets = size_t{1} << kTargetBits;
  static constexpr uint32_t kMaxTargetIndex = uint32_t{1}
                                              << kTargetIndexBits;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << kSeqBits;

  // Registers `target` (not owned) and returns its id for ScheduleTargetAt.
  uint32_t RegisterTarget(EventTarget* target);

  // Publishes where target `target_id`'s records live: record `index`
  // occupies `stride` bytes at `base` + index * `stride`, for every index
  // the target queues. A null `base` (the default) publishes none. The
  // owner publishes again whenever the records move; the core only reads
  // the location to prefetch, so a stale one costs time, not results.
  void PublishTargetRecords(uint32_t target_id, const void* base,
                            size_t stride) {
    AMPERE_CHECK(target_id < targets_.size())
        << "unregistered event target " << target_id;
    AMPERE_CHECK(base == nullptr || stride > 0) << "zero record stride";
    targets_[target_id].records = static_cast<const unsigned char*>(base);
    targets_[target_id].record_stride = stride;
  }

  // The published address of record `index` of target `target_id`, or
  // null if the target publishes none.
  const void* target_record(uint32_t target_id, uint32_t index) const {
    const Target& target = targets_[target_id];
    return target.records == nullptr
               ? nullptr
               : target.records + size_t{index} * target.record_stride;
  }

  // Queues a typed event for record `index` of target `target_id` at `at`
  // (>= now()) and returns its seq, drawn from the same counter as the
  // closures'. The owner stores the seq for EventTarget::Live.
  uint64_t ScheduleTargetAt(SimTime at, uint32_t target_id, uint32_t index) {
    CheckNotPast(at);
    AMPERE_CHECK(target_id < targets_.size())
        << "unregistered event target " << target_id;
    AMPERE_CHECK(index < kMaxTargetIndex)
        << "typed event index overflow: " << index;
    const uint64_t seq = MintSeq();
    HeapPush(QueueEntry{at, (seq << kLowBits) | kTypedFlag |
                                (uint64_t{target_id} << kTargetIndexBits) |
                                index});
    ++live_events_;
    return seq;
  }

  // Settles the pending-event count after the owner retired a queued typed
  // event (stored a new seq or freed the record before it fired). The stale
  // entry is discarded when it reaches the head, like a cancelled closure.
  void RetireTargetEvent() {
    AMPERE_CHECK(live_events_ > 0);
    --live_events_;
  }

  // --- Stream events ---
  // Registers `target` (not owned) as the owner of a new, empty event
  // stream and returns the stream's id for ScheduleStreamAt.
  uint32_t RegisterStream(EventTarget* target);

  // Appends an event for record `index` at `at` (>= now()) to stream
  // `stream` and returns its seq, drawn from the shared counter. `at` must
  // not precede the stream's last queued event. When it fires, the stream's
  // target gets Fire(index).
  uint64_t ScheduleStreamAt(uint32_t stream, SimTime at, uint32_t index) {
    CheckNotPast(at);
    AMPERE_CHECK(stream < streams_.size())
        << "unregistered event stream " << stream;
    AMPERE_CHECK(index < kMaxTargetIndex)
        << "stream event index overflow: " << index;
    RingQueue<QueueEntry>& queue = streams_[stream].queue;
    AMPERE_CHECK(queue.empty() || at >= queue.back().time)
        << "stream event out of order: at=" << at.ToString()
        << " before the stream's last queued event at "
        << queue.back().time.ToString();
    const uint64_t seq = MintSeq();
    const QueueEntry entry{at, (seq << kLowBits) | index};
    if (queue.empty() &&
        (head_stream_ == kNoStream ||
         Earlier(entry, streams_[head_stream_].queue.front()))) {
      head_stream_ = stream;
    }
    queue.push_back(entry);
    ++live_events_;
    return seq;
  }

  // Lets tests reach the seq limit without minting 2^kSeqBits events.
  void SkipSeqsForTesting(uint64_t n) { next_seq_ += n; }

  // Executes the next event, advancing the clock to it. Returns false when
  // the queue is empty.
  bool Step();

  // Runs every event with fire time <= `until`, then sets the clock to
  // `until` (so telemetry windows close deterministically).
  void RunUntil(SimTime until);

  // Runs to queue exhaustion. Periodic tasks never exhaust; use RunUntil.
  void RunToCompletion();

  // Introspection for tests/benches: closure slots ever created (high-water
  // mark of concurrently live closures) and slots currently on the free list.
  size_t slab_size() const { return slots_.size(); }
  size_t free_slots() const { return free_list_.size(); }

 private:
  // Move-only type-erased nullary callable with small-buffer storage.
  // kInlineBytes covers every closure the model schedules (the largest is
  // the periodic re-arm at 40 bytes); larger callables fall back to one
  // heap node, preserving correctness for arbitrary user code.
  class PooledCallback {
   public:
    static constexpr size_t kInlineBytes = 48;

    PooledCallback() = default;
    ~PooledCallback() { Reset(); }
    PooledCallback(const PooledCallback&) = delete;
    PooledCallback& operator=(const PooledCallback&) = delete;

    template <typename F>
    void Emplace(F&& f) {
      using D = std::decay_t<F>;
      static_assert(std::is_invocable_r_v<void, D&>,
                    "event callback must be callable as void()");
      Reset();
      if constexpr (sizeof(D) <= kInlineBytes &&
                    alignof(D) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
        ops_ = InlineOps<D>();
      } else {
        *reinterpret_cast<D**>(static_cast<void*>(buffer_)) =
            new D(std::forward<F>(f));
        ops_ = HeapOps<D>();
      }
    }

    void Invoke() { ops_->invoke(buffer_); }
    void Reset() {
      if (ops_ != nullptr) {
        const Ops* ops = ops_;
        ops_ = nullptr;
        ops->destroy(buffer_);
      }
    }
    bool has_value() const { return ops_ != nullptr; }

   private:
    struct Ops {
      void (*invoke)(void*);
      void (*destroy)(void*);
    };

    template <typename D>
    static const Ops* InlineOps() {
      static constexpr Ops ops = {
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
      };
      return &ops;
    }
    template <typename D>
    static const Ops* HeapOps() {
      static constexpr Ops ops = {
          [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
          [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); },
      };
      return &ops;
    }

    const Ops* ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buffer_[kInlineBytes];
  };

  // Queue entries pack the seq and the event's address into one word: seq
  // in the high kSeqBits, then kLowBits holding a typed flag plus either a
  // closure's slot index (2^27 slots) or a typed event's (target, index).
  // Seqs are globally unique, so comparing packed words compares seqs (the
  // low bits can only break a tie that never happens), and the seq doubles
  // as a generation token: an entry whose seq no longer matches its slot's
  // (or its target record's) is stale. The packing keeps the entry at 16
  // bytes, so the pop's sift-down touches few cache lines.
  static constexpr uint64_t kTypedFlag = uint64_t{1} << (kLowBits - 1);
  static constexpr uint64_t kSlotMask = kTypedFlag - 1;
  // Token value meaning "no queued event owns this slot"; real seqs are
  // checked against kSeqBits so they never collide with it.
  static constexpr uint64_t kNoEvent = ~uint64_t{0};

  // One pooled event slot. `seq` is the sequence number of the event
  // currently occupying the slot (kNoEvent when free/fired/cancelled);
  // queue entries and handles carry the seq they were minted with, so stale
  // references are detected in O(1) without shared ownership.
  struct Slot {
    PooledCallback callback;
    uint64_t seq = kNoEvent;
  };

  struct QueueEntry {
    SimTime time;
    // (seq << kLowBits) | slot for a closure;
    // (seq << kLowBits) | kTypedFlag | (target << kTargetIndexBits) | index
    // for a typed event; (seq << kLowBits) | index for a stream event (the
    // stream is the queue holding the entry).
    uint64_t key;

    uint64_t seq() const { return key >> kLowBits; }
    bool typed() const { return (key & kTypedFlag) != 0; }
    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
    uint32_t target() const {
      return static_cast<uint32_t>((key & kSlotMask) >> kTargetIndexBits);
    }
    uint32_t index() const {
      return static_cast<uint32_t>(key & (kMaxTargetIndex - 1));
    }
  };

  // (time, seq) is a strict total order — seq is unique — so the pop
  // sequence is fully determined by the entries alone, independent of the
  // heap's internal arrangement. That makes the heap shape a pure
  // performance choice: a 4-ary heap halves the levels of a binary heap
  // (fewer dependent cache misses on the pop's sift-down, where most of the
  // queue time goes) at the cost of a few extra in-cache-line compares.
  static bool Earlier(const QueueEntry& a, const QueueEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.key < b.key;
  }

  void HeapPush(const QueueEntry& entry) {
    heap_.push_back(entry);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Earlier(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  // Removes heap_[0]. Hole-based sift-down: the displaced last element is
  // written once at its final position instead of swapped down level by
  // level.
  void HeapPop() {
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return;
    }
    size_t i = 0;
    for (;;) {
      const size_t first_child = i * 4 + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      const size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Earlier(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Earlier(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  uint32_t AllocSlot() {
    if (!free_list_.empty()) {
      const uint32_t index = free_list_.back();
      free_list_.pop_back();
      return index;
    }
    AMPERE_CHECK(slots_.size() < kSlotMask) << "event slot overflow";
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  // Retires a slot's current event: clears its seq token (stale-ing every
  // outstanding handle/queue entry) and returns the slot to the free list.
  void RetireSlot(uint32_t index) {
    Slot& slot = slots_[index];
    slot.seq = kNoEvent;
    slot.callback.Reset();
    free_list_.push_back(index);
  }

  void CheckNotPast(SimTime at) const {
    AMPERE_CHECK(at >= now_) << "scheduling into the past: at="
                             << at.ToString() << " now=" << now_.ToString();
  }

  uint64_t MintSeq() {
    AMPERE_CHECK(next_seq_ < kMaxSeq) << "event seq overflow";
    return next_seq_++;
  }

  bool EntryStale(const QueueEntry& entry) const {
    if (entry.typed()) {
      return !targets_[entry.target()].target->Live(entry.index(),
                                                    entry.seq());
    }
    return slots_[entry.slot()].seq != entry.seq();
  }

  // Where the next event comes from: the heap head or head_stream_'s head.
  enum class Source { kNone, kHeap, kStream };

  // Returns the source of the earliest pending event, or kNone when nothing
  // is pending. A stream head earlier than the heap head wins without the
  // heap head's liveness being asked; otherwise stale heap heads are
  // dropped until a live one or an earlier stream head turns up.
  Source NextSource() {
    for (;;) {
      if (heap_.empty()) {
        return head_stream_ == kNoStream ? Source::kNone : Source::kStream;
      }
      if (head_stream_ != kNoStream &&
          Earlier(streams_[head_stream_].queue.front(), heap_.front())) {
        return Source::kStream;
      }
      if (!EntryStale(heap_.front())) {
        return Source::kHeap;
      }
      // Cancelled or rescheduled: the live-event count was settled then.
      HeapPop();
    }
  }

  SimTime NextTime(Source source) {
    return source == Source::kStream ? streams_[head_stream_].queue.front().time
                                     : heap_.front().time;
  }

  void Fire(Source source) {
    if (source == Source::kStream) {
      FireStreamHead();
    } else {
      FireHeapHead();
    }
  }

  // Pops the (live) heap head and runs it.
  void FireHeapHead();
  // Pops head_stream_'s head, re-elects head_stream_ and runs the event.
  void FireStreamHead();

  void CancelEvent(uint32_t slot_index, uint64_t seq);
  bool EventPending(uint32_t slot_index, uint64_t seq) const {
    return slot_index < slots_.size() && slots_[slot_index].seq == seq;
  }

  SimTime now_;
  uint64_t next_seq_ = 0;
  size_t live_events_ = 0;
  uint64_t processed_events_ = 0;
  // Slab of pooled slots: deque for stable addresses across growth (an event
  // firing may schedule new events while its own slot is still in use).
  std::deque<Slot> slots_;
  std::vector<uint32_t> free_list_;
  // Typed-event targets, indexed by target id, each with its published
  // record location (see PublishTargetRecords).
  struct Target {
    EventTarget* target;  // Not owned.
    const unsigned char* records = nullptr;
    size_t record_stride = 0;
  };
  std::vector<Target> targets_;
  // Event streams, indexed by stream id. Each queue holds its stream's
  // pending events in (time, seq) order, keyed like a closure entry but
  // with the record index in the low bits.
  struct Stream {
    EventTarget* target;  // Not owned.
    RingQueue<QueueEntry> queue;
  };
  static constexpr uint32_t kNoStream = ~uint32_t{0};
  std::vector<Stream> streams_;
  // The non-empty stream with the earliest head, kNoStream if all are empty.
  uint32_t head_stream_ = kNoStream;
  // 4-ary min-heap on (time, packed seq/slot); see Earlier()/HeapPush()/
  // HeapPop().
  std::vector<QueueEntry> heap_;
};

}  // namespace ampere

#endif  // SRC_SIM_SIMULATION_H_
