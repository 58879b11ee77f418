#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace ampere {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Seconds(3), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime::Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Seconds(2), [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::Seconds(3));
}

TEST(SimulationTest, SameTimeEventsFireFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen;
  sim.ScheduleAt(SimTime::Minutes(5), [&] { seen = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, SimTime::Minutes(5));
}

TEST(SimulationTest, SchedulingIntoThePastThrows) {
  Simulation sim;
  sim.ScheduleAt(SimTime::Seconds(10), [] {});
  sim.RunToCompletion();
  EXPECT_THROW(sim.ScheduleAt(SimTime::Seconds(5), [] {}), CheckFailure);
}

TEST(SimulationTest, ScheduleAfterIsRelative) {
  Simulation sim;
  std::vector<double> fire_times;
  sim.ScheduleAt(SimTime::Seconds(10), [&] {
    sim.ScheduleAfter(SimTime::Seconds(5),
                      [&] { fire_times.push_back(sim.now().seconds()); });
  });
  sim.RunToCompletion();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 15.0);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  auto handle = sim.ScheduleAt(SimTime::Seconds(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelAfterFireIsNoop) {
  Simulation sim;
  auto handle = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  sim.RunToCompletion();
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // Must not crash.
}

TEST(SimulationTest, DefaultHandleIsInert) {
  Simulation::EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndSetsClock) {
  Simulation sim;
  std::vector<double> fired;
  sim.ScheduleAt(SimTime::Seconds(1), [&] { fired.push_back(1.0); });
  sim.ScheduleAt(SimTime::Seconds(5), [&] { fired.push_back(5.0); });
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_EQ(sim.now(), SimTime::Seconds(3));
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(SimulationTest, EventAtBoundaryIncludedInRunUntil) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(SimTime::Seconds(3), [&] { fired = true; });
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, RunUntilHonorsBoundaryPastCancelledEvents) {
  // Regression: a cancelled entry at the queue head must not let RunUntil
  // execute a live event beyond the boundary.
  Simulation sim;
  bool late_fired = false;
  auto early = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  sim.ScheduleAt(SimTime::Seconds(100), [&] { late_fired = true; });
  early.Cancel();
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), SimTime::Seconds(10));
  sim.RunUntil(SimTime::Seconds(200));
  EXPECT_TRUE(late_fired);
}

TEST(SimulationTest, PeriodicTaskFiresAtInterval) {
  Simulation sim;
  std::vector<double> fire_minutes;
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime t) { fire_minutes.push_back(t.minutes()); });
  sim.RunUntil(SimTime::Minutes(5.5));
  EXPECT_EQ(fire_minutes, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(SimulationTest, PeriodicTasksInterleaveDeterministically) {
  Simulation sim;
  std::vector<char> order;
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime) { order.push_back('a'); });
  sim.SchedulePeriodic(SimTime::Minutes(1), SimTime::Minutes(1),
                       [&](SimTime) { order.push_back('b'); });
  sim.RunUntil(SimTime::Minutes(3));
  // 'a' was registered first and must stay first at every shared instant.
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b'}));
}

TEST(SimulationTest, ProcessedEventCountTracks) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(SimTime::Seconds(i), [] {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.processed_events(), 10u);
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.Step());
}

// --- Pooled event core ----------------------------------------------------
//
// The slab/free-list slot pool and generation-checked handles are invisible
// to well-behaved callers; these tests pin down the recycling behavior
// directly through the slab_size()/free_slots() introspection hooks.

TEST(SimulationPoolTest, SequentialScheduleFireCyclesReuseOneSlot) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(SimTime::Seconds(i), [&] { ++fired; });
    sim.Step();
  }
  EXPECT_EQ(fired, 100);
  // Fire returns the slot to the free list; the next schedule reuses it.
  EXPECT_EQ(sim.slab_size(), 1u);
  EXPECT_EQ(sim.free_slots(), 1u);
}

TEST(SimulationPoolTest, StaleHandleCannotCancelRecycledSlot) {
  Simulation sim;
  bool second_fired = false;
  auto first = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  sim.Step();  // Fires; the slot goes back to the free list.
  // Reuses the same slot under a newer generation.
  auto second =
      sim.ScheduleAt(SimTime::Seconds(2), [&] { second_fired = true; });
  EXPECT_EQ(sim.slab_size(), 1u);
  EXPECT_FALSE(first.pending());
  first.Cancel();  // Stale generation: must not touch the new occupant.
  EXPECT_TRUE(second.pending());
  sim.RunToCompletion();
  EXPECT_TRUE(second_fired);
}

TEST(SimulationPoolTest, CancelRecyclesTheSlotImmediately) {
  Simulation sim;
  auto handle = sim.ScheduleAt(SimTime::Seconds(1), [] {});
  EXPECT_EQ(sim.free_slots(), 0u);
  handle.Cancel();
  EXPECT_EQ(sim.free_slots(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The orphaned queue entry is discarded by its generation mismatch.
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.processed_events(), 0u);
}

TEST(SimulationPoolTest, GenerationChecksSurviveManyReuseCycles) {
  Simulation sim;
  int fired = 0;
  std::vector<Simulation::EventHandle> stale;
  for (int i = 0; i < 1000; ++i) {
    stale.push_back(sim.ScheduleAt(SimTime::Seconds(i), [&] { ++fired; }));
    sim.Step();
  }
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.slab_size(), 1u);
  // Every retained handle is stale; pending() is false and Cancel() is a
  // no-op for each of the 1000 generations the slot has been through.
  for (auto& handle : stale) {
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
  }
  EXPECT_EQ(sim.free_slots(), 1u);
}

TEST(SimulationPoolTest, OversizedCallbackFallsBackToHeapAndFires) {
  Simulation sim;
  // 128 bytes of captured state: beyond the slot's inline buffer, so this
  // exercises the heap fallback path of the pooled callback storage.
  std::array<uint64_t, 16> payload{};
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = i * 3 + 1;
  }
  uint64_t sum = 0;
  sim.ScheduleAt(SimTime::Seconds(1), [payload, &sum] {
    for (uint64_t v : payload) {
      sum += v;
    }
  });
  sim.RunToCompletion();
  uint64_t expected = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    expected += i * 3 + 1;
  }
  EXPECT_EQ(sum, expected);
}

TEST(SimulationPoolTest, CancelInsideOwnCallbackIsNoop) {
  Simulation sim;
  Simulation::EventHandle handle;
  bool fired = false;
  handle = sim.ScheduleAt(SimTime::Seconds(1), [&] {
    fired = true;
    // The event counts as fired before its callback runs, matching the old
    // shared-state handle semantics.
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
  });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.free_slots(), sim.slab_size());
}

TEST(SimulationTest, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(SimTime::Seconds(1), recurse);
    }
  };
  sim.ScheduleAt(SimTime::Seconds(0), recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::Seconds(4));
}

// --- Typed events -----------------------------------------------------------

// A typed-event owner with `n` records. A queued record stores the seq its
// event was queued with; firing it frees the record and logs its label.
// With `publish`, the record array (which never moves) is published to the
// Simulation as the records' location.
class LabelTarget final : public EventTarget {
 public:
  static constexpr uint64_t kFree = ~uint64_t{0};

  LabelTarget(Simulation* sim, size_t n, std::vector<int>* log,
              bool publish = false)
      : sim_(sim), id_(sim->RegisterTarget(this)), seqs_(n, kFree),
        labels_(n, -1), log_(log) {
    if (publish) {
      sim->PublishTargetRecords(id_, seqs_.data(), sizeof(seqs_[0]));
    }
  }

  // Queues record `index` at `at`, retiring its queued event first if it
  // has one (a reschedule). Returns the new event's seq.
  uint64_t Schedule(SimTime at, uint32_t index, int label) {
    if (queued(index)) {
      sim_->RetireTargetEvent();
    }
    labels_[index] = label;
    seqs_[index] = sim_->ScheduleTargetAt(at, id_, index);
    return seqs_[index];
  }

  // Frees a queued record without firing it.
  void Free(uint32_t index) {
    seqs_[index] = kFree;
    sim_->RetireTargetEvent();
  }

  bool queued(uint32_t index) const { return seqs_[index] != kFree; }
  int label(uint32_t index) const { return labels_[index]; }
  uint32_t id() const { return id_; }
  size_t size() const { return seqs_.size(); }
  const void* record(uint32_t index) const { return &seqs_[index]; }

  bool Live(uint32_t index, uint64_t seq) const override {
    return index < seqs_.size() && seqs_[index] == seq;
  }
  void Fire(uint32_t index) override {
    seqs_[index] = kFree;
    log_->push_back(labels_[index]);
  }

 private:
  Simulation* sim_;
  uint32_t id_;
  std::vector<uint64_t> seqs_;
  std::vector<int> labels_;
  std::vector<int>* log_;
};

// Runs `fn` and expects it to fail an AMPERE_CHECK whose message contains
// `message`.
template <typename F>
void ExpectCheckFailure(F&& fn, const std::string& message) {
  try {
    fn();
    ADD_FAILURE() << "expected a CheckFailure containing: " << message;
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

// A stream owner: queues labels in append order and logs each as its event
// fires. The label doubles as the event's record index.
class StreamLabels final : public EventTarget {
 public:
  StreamLabels(Simulation* sim, std::vector<int>* log)
      : sim_(sim), id_(sim->RegisterStream(this)), log_(log) {}

  uint64_t Append(SimTime at, int label) {
    const uint64_t seq =
        sim_->ScheduleStreamAt(id_, at, static_cast<uint32_t>(label));
    labels_.push_back(label);
    last_ = at;
    return seq;
  }

  bool empty() const { return labels_.empty(); }
  // Time of the last appended event.
  SimTime last() const { return last_; }
  uint32_t id() const { return id_; }

  bool Live(uint32_t, uint64_t) const override {
    ADD_FAILURE() << "Live() asked of a stream event";
    return true;
  }
  void Fire(uint32_t index) override {
    EXPECT_EQ(index, static_cast<uint32_t>(labels_.front()));
    log_->push_back(labels_.front());
    labels_.pop_front();
  }

 private:
  Simulation* sim_;
  uint32_t id_;
  std::vector<int>* log_;
  std::deque<int> labels_;
  SimTime last_;
};

TEST(SimulationTypedEventTest, TypedAndClosureEventsShareOneSeqOrder) {
  Simulation sim;
  std::vector<int> log;
  LabelTarget target(&sim, 4, &log);
  sim.ScheduleAt(SimTime::Seconds(2), [&] { log.push_back(0); });
  EXPECT_EQ(target.Schedule(SimTime::Seconds(2), 0, 1), 1u);
  sim.ScheduleAt(SimTime::Seconds(1), [&] { log.push_back(2); });
  EXPECT_EQ(target.Schedule(SimTime::Seconds(1), 3, 3), 3u);
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{2, 3, 0, 1}));
  EXPECT_EQ(sim.processed_events(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTypedEventTest, RescheduleFiresOnceAtTheNewTime) {
  Simulation sim;
  std::vector<int> log;
  LabelTarget target(&sim, 1, &log);
  target.Schedule(SimTime::Seconds(5), 0, 7);
  target.Schedule(SimTime::Seconds(9), 0, 7);  // Retires the 5 s event.
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(SimTime::Seconds(8));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.processed_events(), 0u);
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{7}));
  EXPECT_EQ(sim.now(), SimTime::Seconds(9));
  EXPECT_EQ(sim.processed_events(), 1u);
}

TEST(SimulationTypedEventTest, RunUntilHonorsBoundaryPastStaleTypedHead) {
  Simulation sim;
  std::vector<int> log;
  LabelTarget target(&sim, 2, &log);
  target.Schedule(SimTime::Seconds(1), 0, 0);
  target.Schedule(SimTime::Seconds(100), 1, 1);
  target.Free(0);
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.now(), SimTime::Seconds(10));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(SimTime::Seconds(200));
  EXPECT_EQ(log, (std::vector<int>{1}));
}

// Randomly interleaves closures, typed events and one to four streams —
// schedules, cancels, reschedules, frees, stream appends, zero-delay
// events, same-microsecond ties across all three kinds, single steps and
// RunUntil boundaries — against a reference list fired in (time, seq)
// order, where seq counts schedule calls of every kind. One typed target
// publishes its records' location and the other publishes none, so the
// core's record prefetch runs beside its null-location skip; neither may
// change the order.
TEST(SimulationTypedEventTest, RandomInterleavingMatchesTimeSeqOrder) {
  struct RefEvent {
    SimTime time;
    uint64_t seq;
    int label;
  };
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    Simulation sim;
    Rng rng(seed);
    std::vector<int> log;
    std::vector<std::unique_ptr<LabelTarget>> targets;
    targets.push_back(
        std::make_unique<LabelTarget>(&sim, 6, &log, /*publish=*/true));
    targets.push_back(std::make_unique<LabelTarget>(&sim, 6, &log));
    for (uint32_t i = 0; i < targets[0]->size(); ++i) {
      ASSERT_EQ(sim.target_record(targets[0]->id(), i),
                targets[0]->record(i));
      ASSERT_EQ(sim.target_record(targets[1]->id(), i), nullptr);
    }
    std::vector<std::unique_ptr<StreamLabels>> streams;
    for (uint64_t i = 0; i <= seed % 4; ++i) {
      streams.push_back(std::make_unique<StreamLabels>(&sim, &log));
    }
    std::vector<std::pair<Simulation::EventHandle, int>> closures;
    std::vector<RefEvent> ref;  // Live events.
    uint64_t next_seq = 0;
    int next_label = 0;
    uint64_t processed = 0;

    auto unref = [&ref](int label) {
      const auto it = std::find_if(ref.begin(), ref.end(),
                                   [label](const RefEvent& e) {
                                     return e.label == label;
                                   });
      if (it == ref.end()) {
        return false;
      }
      ref.erase(it);
      return true;
    };
    // Mostly ties and zero delays, sometimes a spread.
    auto pick_time = [&] {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          return sim.now();
        case 1:
          return sim.now() + SimTime::Micros(rng.UniformInt(0, 3));
        default:
          return sim.now() + SimTime::Micros(rng.UniformInt(0, 50));
      }
    };
    // Removes and returns the reference's earliest live events up to
    // `until`, in (time, seq) order.
    auto expect_fired = [&](SimTime until, size_t max_events) {
      std::vector<int> labels;
      while (labels.size() < max_events && !ref.empty()) {
        const auto it = std::min_element(
            ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
        if (it->time > until) {
          break;
        }
        labels.push_back(it->label);
        ref.erase(it);
      }
      processed += labels.size();
      return labels;
    };

    for (int op = 0; op < 400; ++op) {
      const auto logged = static_cast<std::ptrdiff_t>(log.size());
      switch (rng.UniformInt(0, 12)) {
        case 0:
        case 1:
        case 2: {  // Schedule a closure.
          const SimTime at = pick_time();
          const int label = next_label++;
          closures.emplace_back(
              sim.ScheduleAt(at, [&log, label] { log.push_back(label); }),
              label);
          ref.push_back({at, next_seq++, label});
          break;
        }
        case 3:
        case 4:
        case 5: {  // Schedule or reschedule a typed record.
          LabelTarget& target = *targets[static_cast<size_t>(rng.UniformInt(0, 1))];
          const auto index = static_cast<uint32_t>(rng.UniformInt(0, 5));
          if (target.queued(index)) {
            ASSERT_TRUE(unref(target.label(index)));
          }
          const SimTime at = pick_time();
          const int label = next_label++;
          ASSERT_EQ(target.Schedule(at, index, label), next_seq);
          ref.push_back({at, next_seq++, label});
          break;
        }
        case 6: {  // Cancel a closure (possibly already fired/cancelled).
          if (closures.empty()) {
            break;
          }
          auto& [handle, label] = closures[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(closures.size()) - 1))];
          const bool live = unref(label);
          ASSERT_EQ(handle.pending(), live);
          handle.Cancel();
          ASSERT_FALSE(handle.pending());
          break;
        }
        case 7: {  // Free a queued typed record without firing it.
          LabelTarget& target = *targets[static_cast<size_t>(rng.UniformInt(0, 1))];
          const auto index = static_cast<uint32_t>(rng.UniformInt(0, 5));
          if (target.queued(index)) {
            ASSERT_TRUE(unref(target.label(index)));
            target.Free(index);
          }
          break;
        }
        case 8: {  // One step.
          const bool had_live = !ref.empty();
          const std::vector<int> want = expect_fired(SimTime::Max(), 1);
          ASSERT_EQ(sim.Step(), had_live);
          ASSERT_EQ(std::vector<int>(log.begin() + logged, log.end()), want);
          break;
        }
        case 9:
        case 10: {  // Append to a stream, no earlier than its last event.
          StreamLabels& stream = *streams[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(streams.size()) - 1))];
          SimTime at = pick_time();
          if (!stream.empty() && at < stream.last()) {
            at = stream.last();
          }
          const int label = next_label++;
          ASSERT_EQ(stream.Append(at, label), next_seq);
          ref.push_back({at, next_seq++, label});
          break;
        }
        default: {  // RunUntil a boundary at or past now.
          const SimTime until =
              sim.now() + SimTime::Micros(rng.UniformInt(0, 20));
          const std::vector<int> want = expect_fired(until, ref.size());
          sim.RunUntil(until);
          ASSERT_EQ(std::vector<int>(log.begin() + logged, log.end()), want);
          ASSERT_EQ(sim.now(), until);
          break;
        }
      }
      ASSERT_EQ(sim.pending_events(), ref.size()) << "after op " << op;
      ASSERT_EQ(sim.processed_events(), processed) << "after op " << op;
    }
    const auto logged = static_cast<std::ptrdiff_t>(log.size());
    const std::vector<int> want = expect_fired(SimTime::Max(), ref.size());
    sim.RunToCompletion();
    EXPECT_EQ(std::vector<int>(log.begin() + logged, log.end()), want);
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(sim.processed_events(), processed);
  }
}

TEST(SimulationTypedEventTest, TargetCountLimitIsChecked) {
  Simulation sim;
  std::vector<int> log;
  std::vector<std::unique_ptr<LabelTarget>> targets;
  for (size_t i = 0; i < Simulation::kMaxTargets; ++i) {
    targets.push_back(std::make_unique<LabelTarget>(&sim, 1, &log));
  }
  EXPECT_EQ(targets.back()->id(), Simulation::kMaxTargets - 1);
  ExpectCheckFailure([&] { LabelTarget extra(&sim, 1, &log); },
                     "event target overflow");
  ExpectCheckFailure(
      [&] {
        sim.ScheduleTargetAt(SimTime(),
                             static_cast<uint32_t>(Simulation::kMaxTargets),
                             0);
      },
      "unregistered event target");
  EXPECT_EQ(sim.pending_events(), 0u);
  // The largest target id packs and unpacks intact.
  targets.back()->Schedule(SimTime(), 0, 9);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(log, (std::vector<int>{9}));
}

// Fires every entry it is handed and remembers the index.
class ProbeTarget final : public EventTarget {
 public:
  bool Live(uint32_t, uint64_t) const override { return true; }
  void Fire(uint32_t index) override { fired_index = index; }
  uint32_t fired_index = 0;
};

TEST(SimulationTypedEventTest, TargetIndexLimitIsChecked) {
  Simulation sim;
  ProbeTarget target;
  const uint32_t id = sim.RegisterTarget(&target);
  ExpectCheckFailure(
      [&] { sim.ScheduleTargetAt(SimTime(), id, Simulation::kMaxTargetIndex); },
      "typed event index overflow");
  EXPECT_EQ(sim.pending_events(), 0u);
  // The largest index packs and unpacks intact.
  sim.ScheduleTargetAt(SimTime(), id, Simulation::kMaxTargetIndex - 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(target.fired_index, Simulation::kMaxTargetIndex - 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.processed_events(), 1u);
}

TEST(SimulationTypedEventTest, SeqLimitIsChecked) {
  Simulation sim;
  std::vector<int> log;
  LabelTarget target(&sim, 1, &log);
  sim.SkipSeqsForTesting(Simulation::kMaxSeq - 1);
  EXPECT_EQ(target.Schedule(SimTime::Seconds(1), 0, 5),
            Simulation::kMaxSeq - 1);
  ExpectCheckFailure([&] { sim.ScheduleAt(SimTime(), [] {}); },
                     "event seq overflow");
  ExpectCheckFailure([&] { sim.ScheduleTargetAt(SimTime(), target.id(), 0); },
                     "event seq overflow");
  // The last seq still fires.
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{5}));
}

// --- Stream events ---------------------------------------------------------

TEST(SimulationStreamTest, StreamsShareTheSeqOrderWithHeapEvents) {
  Simulation sim;
  std::vector<int> log;
  LabelTarget target(&sim, 2, &log);
  StreamLabels a(&sim, &log);
  StreamLabels b(&sim, &log);
  EXPECT_EQ(a.Append(SimTime::Seconds(1), 0), 0u);
  sim.ScheduleAt(SimTime::Seconds(1), [&] { log.push_back(1); });
  EXPECT_EQ(b.Append(SimTime::Seconds(1), 2), 2u);
  target.Schedule(SimTime::Seconds(1), 0, 3);
  EXPECT_EQ(a.Append(SimTime::Seconds(1), 4), 4u);
  EXPECT_EQ(b.Append(SimTime::Seconds(3), 5), 5u);
  EXPECT_EQ(a.Append(SimTime::Seconds(2), 6), 6u);
  sim.ScheduleAt(SimTime::Micros(500), [&] { log.push_back(7); });
  EXPECT_EQ(sim.pending_events(), 8u);
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{7, 0, 1, 2, 3, 4, 6, 5}));
  EXPECT_EQ(sim.processed_events(), 8u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), SimTime::Seconds(3));
}

// A stream owner whose every event appends a follow-up, at the same
// instant, to itself or to a second stream until `remaining` runs out.
class ChainStreams final : public EventTarget {
 public:
  ChainStreams(Simulation* sim, std::vector<int>* log)
      : sim_(sim), log_(log) {
    ids_[0] = sim->RegisterStream(this);
    ids_[1] = sim->RegisterStream(this);
  }
  void Append(int stream, uint32_t label) {
    sim_->ScheduleStreamAt(ids_[stream], sim_->now(), label);
  }
  bool Live(uint32_t, uint64_t) const override { return true; }
  void Fire(uint32_t label) override {
    log_->push_back(static_cast<int>(label));
    if (remaining > 0) {
      --remaining;
      Append(static_cast<int>(label % 2), label + 10);
    }
  }
  int remaining = 4;

 private:
  Simulation* sim_;
  std::vector<int>* log_;
  uint32_t ids_[2] = {0, 0};
};

TEST(SimulationStreamTest, FireMayAppendToAnyStreamAtTheSameInstant) {
  Simulation sim;
  std::vector<int> log;
  ChainStreams chain(&sim, &log);
  chain.Append(0, 1);                                         // seq 0
  sim.ScheduleAt(SimTime(), [&] { log.push_back(100); });    // seq 1
  chain.Append(1, 2);                                         // seq 2
  sim.RunToCompletion();
  // 1 appends 11 (seq 3) to stream 1, 2 appends 12 (seq 4) to stream 0,
  // 11 appends 21 (seq 5) to stream 1, 12 appends 22 (seq 6) to stream 0.
  EXPECT_EQ(log, (std::vector<int>{1, 100, 2, 11, 12, 21, 22}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.processed_events(), 7u);
}

TEST(SimulationStreamTest, RunUntilHonorsBoundaryPastStaleHeapHead) {
  Simulation sim;
  std::vector<int> log;
  LabelTarget target(&sim, 1, &log);
  StreamLabels stream(&sim, &log);
  target.Schedule(SimTime::Seconds(1), 0, 0);
  auto cancelled =
      sim.ScheduleAt(SimTime::Seconds(2), [&] { log.push_back(1); });
  stream.Append(SimTime::Seconds(100), 2);
  target.Free(0);
  cancelled.Cancel();
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.now(), SimTime::Seconds(10));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.processed_events(), 0u);
  sim.RunUntil(SimTime::Seconds(100));
  EXPECT_EQ(log, (std::vector<int>{2}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulationStreamTest, OutOfOrderAppendIsChecked) {
  Simulation sim;
  std::vector<int> log;
  StreamLabels stream(&sim, &log);
  stream.Append(SimTime::Seconds(5), 0);
  ExpectCheckFailure([&] { stream.Append(SimTime::Seconds(4), 1); },
                     "stream event out of order");
  // A tie with the last queued event is in order.
  stream.Append(SimTime::Seconds(5), 2);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{0, 2}));
  // A drained stream accepts any time at or after now.
  ExpectCheckFailure([&] { stream.Append(SimTime::Seconds(4), 3); },
                     "scheduling into the past");
  stream.Append(SimTime::Seconds(5), 4);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(log, (std::vector<int>{0, 2, 4}));
}

TEST(SimulationStreamTest, UnregisteredStreamAndIndexOverflowAreChecked) {
  Simulation sim;
  ExpectCheckFailure([&] { sim.ScheduleStreamAt(0, SimTime(), 0); },
                     "unregistered event stream 0");
  ProbeTarget target;
  const uint32_t id = sim.RegisterStream(&target);
  ExpectCheckFailure([&] { sim.ScheduleStreamAt(id + 1, SimTime(), 0); },
                     "unregistered event stream 1");
  ExpectCheckFailure(
      [&] { sim.ScheduleStreamAt(id, SimTime(), Simulation::kMaxTargetIndex); },
      "stream event index overflow");
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.ScheduleStreamAt(id, SimTime(), Simulation::kMaxTargetIndex - 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(target.fired_index, Simulation::kMaxTargetIndex - 1);
}

// Thousands of appends through a small backlog wrap the stream's ring many
// times; a backlog larger than the ring grows it mid-wrap. Order holds
// throughout.
TEST(SimulationStreamTest, RingWrapAndGrowthKeepFifoOrder) {
  Simulation sim;
  std::vector<int> log;
  StreamLabels stream(&sim, &log);
  int next = 0;
  std::vector<int> want;
  for (int round = 0; round < 200; ++round) {
    const int backlog = round % 50 == 49 ? 100 : 3;
    for (int i = 0; i < backlog; ++i) {
      want.push_back(next);
      stream.Append(SimTime::Micros(next), next);
      ++next;
    }
    sim.Step();
    sim.Step();
  }
  sim.RunToCompletion();
  EXPECT_EQ(log, want);
}

}  // namespace
}  // namespace ampere
