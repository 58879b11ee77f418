// Flight recorder: a bounded timeline of structured simulation events.
//
// The metrics registry answers "how many times did X happen" and the
// decision journal answers "what did the controller decide each minute" —
// neither answers "what happened in the ten minutes before this near-trip".
// The flight recorder is that third pillar: a bounded ring buffer of small
// POD timeline events (controller tick edges, freeze/unfreeze RPCs,
// breaker-margin crossings, degraded-mode transitions, fault-window edges,
// campus re-plans, cross-DC spillover batches), stamped with *simulation*
// time, that the trace exporter (src/obs/trace_export.h) renders as a
// Perfetto/Chrome timeline and the postmortem builder snapshots when an
// anomaly fires.
//
// Hot-path contract: Append() is a slot index bump plus a handful of POD
// stores into preallocated storage — no locks, no allocation, no hashing.
// The recorder is single-writer by construction (every instrumented site
// runs on the simulation thread of one run; the thread-local
// CurrentRecorder() scoping mirrors ScopedMetricsRegistry), so "lock-free"
// costs nothing to guarantee. Readers (trace export, postmortems) run on
// the same thread between or after events.
//
// Determinism contract: the recorder only *observes*. It never schedules
// simulation events, touches RNG streams, or feeds back into control
// decisions — the event queue's (time, seq) order, and therefore every
// simulation result, is bit-identical with the recorder attached or not.
// The anomaly sink may perform I/O (writing a postmortem artifact), which
// is likewise invisible to the simulation.
//
// Cost control: emit through AMPERE_TIMELINE / AMPERE_TIMELINE_D, which
// gate on a thread-local null check — without a recorder installed a site
// costs one load and a branch (measured in bench/micro_components).

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"

namespace ampere {
namespace obs {

// Every kind of timeline event the instrumented layers emit. Payload field
// semantics (a, b, c) are per-type; see the emit sites and the table in
// docs/observability.md.
enum class TimelineEventType : uint8_t {
  kTickBegin = 0,       // a=observed watts, b=budget watts, c=domain index.
  kTickEnd,             // a=E_t (effective), b=freeze ratio u, c=n_freeze.
  kFreezeRpc,           // a=attempts, b=ok (1/0), c=server id.
  kUnfreezeRpc,         // a=attempts, b=ok (1/0), c=server id.
  kBreakerMarginEnter,  // a=row watts, b=row budget watts, c=row index.
  kBreakerMarginExit,   // a=row watts, b=row budget watts, c=row index.
  kBreakerTrip,         // a=row watts, b=row budget watts, c=row index.
  kCapacityViolation,   // a=normalized power, b=budget watts, c=domain idx.
  kDegradedEnter,       // a=mode (DegradedMode), b=reading age min, c=dom.
  kDegradedExit,        // a=previous mode, c=domain index.
  kFaultWindowBegin,    // c=row index (row feed went dark).
  kFaultWindowEnd,      // c=row index (row feed recovered).
  kTelemetryStall,      // a=total stalled passes so far.
  kCampusReplan,        // a=new budget watts, b=observed watts, c=dc index.
  kSpillover,           // a=jobs moved, b=target headroom watts,
                        // c=(from_dc << 32) | to_dc.
};

// Stable lower_snake name for serialization ("tick_begin", ...).
std::string_view TimelineEventTypeName(TimelineEventType type);

// Which conceptual component emits this type — the trace exporter's track
// suffix ("controller", "monitor", "power", "campus").
std::string_view TimelineEventSource(TimelineEventType type);

// One timeline event. POD; 48 bytes.
struct TimelineEvent {
  uint64_t seq = 0;      // Monotonic append index; survives eviction.
  SimTime time;          // Simulation-time stamp.
  TimelineEventType type = TimelineEventType::kTickBegin;
  DomainId domain = 0;   // Interned metrics domain current at emit.
  double a = 0.0;        // Payload; semantics per type (see enum).
  double b = 0.0;
  uint64_t c = 0;
};

// Which event types fire the postmortem sink, and how often. Cooldown is
// simulation time: a violation that persists for an hour produces one
// artifact per cooldown window, not sixty.
struct AnomalyPolicy {
  bool on_breaker_trip = true;
  bool on_capacity_violation = true;
  bool on_degraded_enter = true;
  uint32_t max_postmortems = 4;             // Per run; 0 disables the sink.
  SimTime cooldown = SimTime::Minutes(10);  // Minimum gap between firings.
};

class FlightRecorder {
 public:
  // The ring holds the most recent `capacity` events. 16384 * 48 B = 768 KiB
  // covers several hours of minute-cadence instrumentation plus RPC bursts.
  explicit FlightRecorder(size_t capacity = 16384);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one event under the calling thread's current metrics domain.
  // Lock-free, allocation-free; evicts the oldest event when full. Fires
  // the anomaly sink (if armed) for trigger types, post-append.
  void Append(SimTime time, TimelineEventType type, double a = 0.0,
              double b = 0.0, uint64_t c = 0) {
    AppendWithDomain(CurrentDomainId(), time, type, a, b, c);
  }
  // Same, with an explicit domain (for emitters that hold a DomainId but
  // run outside any ScopedMetricsDomain, e.g. the DataCenter's breaker).
  void AppendWithDomain(DomainId domain, SimTime time, TimelineEventType type,
                        double a = 0.0, double b = 0.0, uint64_t c = 0);

  size_t capacity() const { return capacity_; }
  size_t size() const {
    return next_seq_ < capacity_ ? static_cast<size_t>(next_seq_) : capacity_;
  }
  bool empty() const { return next_seq_ == 0; }
  uint64_t total_appended() const { return next_seq_; }

  // Live events in chronological (append) order.
  std::vector<TimelineEvent> All() const;
  // The most recent `n` live events, oldest first.
  std::vector<TimelineEvent> Tail(size_t n) const;
  // Live events with begin <= time <= end, in append order.
  std::vector<TimelineEvent> Window(SimTime begin, SimTime end) const;
  // Visits live events in append order (no materialization).
  void ForEach(const std::function<void(const TimelineEvent&)>& fn) const;

  // --- Anomaly triggering ---
  // The sink runs synchronously inside Append (post-append, so the trigger
  // event itself is part of the window). It must not emit further timeline
  // events or mutate simulation state.
  void SetAnomalyPolicy(const AnomalyPolicy& policy) { policy_ = policy; }
  const AnomalyPolicy& anomaly_policy() const { return policy_; }
  void SetAnomalySink(std::function<void(const TimelineEvent&)> sink) {
    sink_ = std::move(sink);
  }
  uint64_t anomalies_fired() const { return anomalies_fired_; }

  void Clear();

 private:
  bool IsAnomalyTrigger(TimelineEventType type) const;

  const size_t capacity_;
  uint64_t next_seq_ = 0;
  std::vector<TimelineEvent> ring_;  // Preallocated to capacity_.
  AnomalyPolicy policy_;
  std::function<void(const TimelineEvent&)> sink_;
  uint64_t anomalies_fired_ = 0;
  bool anomaly_ever_fired_ = false;
  SimTime last_anomaly_time_;
};

// --- Current-recorder scoping --------------------------------------------

namespace internal {
// constinit for the same reason as t_current_domain (metrics.h).
extern constinit thread_local FlightRecorder* t_current_recorder;
}  // namespace internal

// The recorder instrumentation on this thread currently appends to, or
// nullptr (recording disabled — the default).
inline FlightRecorder* CurrentRecorder() {
  return internal::t_current_recorder;
}

// Installs `recorder` as the calling thread's current recorder for the
// scope's lifetime. Scopes nest; strictly thread-local, exactly like
// ScopedMetricsRegistry. Passing nullptr suspends recording in the scope.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder* recorder)
      : previous_(internal::t_current_recorder) {
    internal::t_current_recorder = recorder;
  }
  ~ScopedFlightRecorder() { internal::t_current_recorder = previous_; }

  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* previous_;
};

// --- Postmortem artifacts ------------------------------------------------

struct PostmortemConfig {
  // Event window preceding (and including) the trigger.
  SimTime window = SimTime::Minutes(10);
  // Most recent decision records included from the journal (0 = none).
  size_t journal_tail = 64;
};

// Serializes one event as a JSON object (the postmortem "events" / trace
// tooling building block; exposed for tests).
std::string TimelineEventToJson(const TimelineEvent& event);

// Builds the self-describing postmortem JSON artifact for `trigger`:
// schema tag, run label, the trigger event, the recorder's event window
// ending at the trigger, a full metrics snapshot, and the journal tail.
// `journal` may be null (emits an empty tail). Pure function of its inputs;
// the caller owns writing it to disk.
std::string BuildPostmortemJson(const TimelineEvent& trigger,
                                const FlightRecorder& recorder,
                                const MetricsSnapshot& metrics,
                                const DecisionJournal* journal,
                                const PostmortemConfig& config,
                                std::string_view run_label);

}  // namespace obs
}  // namespace ampere

// --- Instrumentation macros ----------------------------------------------

// Appends a timeline event to the current recorder, if one is installed.
// `time` is a SimTime; trailing args are the (a, b, c) payload.
#define AMPERE_TIMELINE(time, type, ...)                                \
  do {                                                                  \
    ::ampere::obs::FlightRecorder* ampere_obs_rec =                     \
        ::ampere::obs::CurrentRecorder();                               \
    if (ampere_obs_rec != nullptr) {                                    \
      ampere_obs_rec->Append((time), (type)__VA_OPT__(, ) __VA_ARGS__); \
    }                                                                   \
  } while (0)

// Same, with an explicit ::ampere::obs::DomainId first.
#define AMPERE_TIMELINE_D(domain, time, type, ...)                        \
  do {                                                                    \
    ::ampere::obs::FlightRecorder* ampere_obs_rec =                       \
        ::ampere::obs::CurrentRecorder();                                 \
    if (ampere_obs_rec != nullptr) {                                      \
      ampere_obs_rec->AppendWithDomain((domain), (time),                  \
                                       (type)__VA_OPT__(, ) __VA_ARGS__); \
    }                                                                     \
  } while (0)

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
