#include "src/obs/flight_recorder.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/text_format.h"

namespace ampere {
namespace obs {

namespace internal {
constinit thread_local FlightRecorder* t_current_recorder = nullptr;
}  // namespace internal

std::string_view TimelineEventTypeName(TimelineEventType type) {
  switch (type) {
    case TimelineEventType::kTickBegin:
      return "tick_begin";
    case TimelineEventType::kTickEnd:
      return "tick_end";
    case TimelineEventType::kFreezeRpc:
      return "freeze_rpc";
    case TimelineEventType::kUnfreezeRpc:
      return "unfreeze_rpc";
    case TimelineEventType::kBreakerMarginEnter:
      return "breaker_margin_enter";
    case TimelineEventType::kBreakerMarginExit:
      return "breaker_margin_exit";
    case TimelineEventType::kBreakerTrip:
      return "breaker_trip";
    case TimelineEventType::kCapacityViolation:
      return "capacity_violation";
    case TimelineEventType::kDegradedEnter:
      return "degraded_enter";
    case TimelineEventType::kDegradedExit:
      return "degraded_exit";
    case TimelineEventType::kFaultWindowBegin:
      return "fault_window_begin";
    case TimelineEventType::kFaultWindowEnd:
      return "fault_window_end";
    case TimelineEventType::kTelemetryStall:
      return "telemetry_stall";
    case TimelineEventType::kCampusReplan:
      return "campus_replan";
    case TimelineEventType::kSpillover:
      return "spillover";
  }
  return "unknown";
}

std::string_view TimelineEventSource(TimelineEventType type) {
  switch (type) {
    case TimelineEventType::kTickBegin:
    case TimelineEventType::kTickEnd:
    case TimelineEventType::kFreezeRpc:
    case TimelineEventType::kUnfreezeRpc:
    case TimelineEventType::kCapacityViolation:
    case TimelineEventType::kDegradedEnter:
    case TimelineEventType::kDegradedExit:
      return "controller";
    case TimelineEventType::kBreakerMarginEnter:
    case TimelineEventType::kBreakerMarginExit:
    case TimelineEventType::kBreakerTrip:
      return "power";
    case TimelineEventType::kFaultWindowBegin:
    case TimelineEventType::kFaultWindowEnd:
    case TimelineEventType::kTelemetryStall:
      return "monitor";
    case TimelineEventType::kCampusReplan:
    case TimelineEventType::kSpillover:
      return "campus";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {
  AMPERE_CHECK(capacity_ > 0) << "FlightRecorder capacity must be > 0";
  ring_.resize(capacity_);
}

void FlightRecorder::Append(DomainId domain, SimTime time,
                            TimelineEventType type, double a, double b,
                            uint64_t c) {
  TimelineEvent& slot = ring_[static_cast<size_t>(next_seq_ % capacity_)];
  slot.seq = next_seq_;
  slot.time = time;
  slot.type = type;
  slot.domain = domain;
  slot.a = a;
  slot.b = b;
  slot.c = c;
  ++next_seq_;
  if (sink_ && IsAnomalyTrigger(type)) {
    const bool cooled =
        !anomaly_ever_fired_ || time >= last_anomaly_time_ + policy_.cooldown;
    if (cooled && anomalies_fired_ < policy_.max_postmortems) {
      anomaly_ever_fired_ = true;
      last_anomaly_time_ = time;
      ++anomalies_fired_;
      // Copy: the sink may append (it should not, but a dangling reference
      // into the ring must not be the failure mode if it does).
      const TimelineEvent trigger = slot;
      sink_(trigger);
    }
  }
}

bool FlightRecorder::IsAnomalyTrigger(TimelineEventType type) const {
  switch (type) {
    case TimelineEventType::kBreakerTrip:
      return policy_.on_breaker_trip;
    case TimelineEventType::kCapacityViolation:
      return policy_.on_capacity_violation;
    case TimelineEventType::kDegradedEnter:
      return policy_.on_degraded_enter;
    default:
      return false;
  }
}

std::vector<TimelineEvent> FlightRecorder::Tail(size_t n) const {
  const size_t live = size();
  const size_t take = std::min(n, live);
  std::vector<TimelineEvent> out;
  out.reserve(take);
  const uint64_t first = next_seq_ - take;
  for (uint64_t seq = first; seq < next_seq_; ++seq) {
    out.push_back(ring_[static_cast<size_t>(seq % capacity_)]);
  }
  return out;
}

void FlightRecorder::ForEach(
    const std::function<void(const TimelineEvent&)>& fn) const {
  const size_t live = size();
  const uint64_t first = next_seq_ - live;
  for (uint64_t seq = first; seq < next_seq_; ++seq) {
    fn(ring_[static_cast<size_t>(seq % capacity_)]);
  }
}

std::string TimelineEventToJson(const TimelineEvent& event) {
  std::string out = "{\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"time_us\":";
  out += std::to_string(event.time.micros());
  out += ",\"type\":\"";
  out += TimelineEventTypeName(event.type);
  out += "\",\"source\":\"";
  out += TimelineEventSource(event.type);
  out += "\",\"domain\":\"";
  out += JsonEscape(DomainPrefix(event.domain));
  out += "\",\"a\":";
  out += FormatDouble(event.a);
  out += ",\"b\":";
  out += FormatDouble(event.b);
  out += ",\"c\":";
  out += std::to_string(event.c);
  out += "}";
  return out;
}

std::string BuildPostmortemJson(const TimelineEvent& trigger,
                                const FlightRecorder& recorder,
                                const MetricsSnapshot& metrics,
                                const DecisionJournal* journal,
                                const PostmortemConfig& config,
                                std::string_view run_label) {
  std::string out = "{\"schema\":\"ampere.postmortem.v1\"";
  out += ",\"run\":\"";
  out += JsonEscape(run_label);
  out += "\",\"trigger\":";
  out += TimelineEventToJson(trigger);
  out += ",\"window_us\":";
  out += std::to_string(config.window.micros());
  out += ",\"events\":[";
  const SimTime begin = trigger.time.micros() > config.window.micros()
                            ? SimTime::Micros(trigger.time.micros() -
                                              config.window.micros())
                            : SimTime::Micros(0);
  bool first = true;
  recorder.ForEach([&](const TimelineEvent& e) {
    if (e.time < begin || e.time > trigger.time || e.seq > trigger.seq) return;
    if (!first) out += ",";
    first = false;
    out += TimelineEventToJson(e);
  });
  out += "],\"metrics\":";
  out += metrics.ToJson();
  out += ",\"journal_tail\":[";
  if (journal != nullptr && config.journal_tail > 0) {
    const std::vector<DecisionRecord> tail = journal->Tail(config.journal_tail);
    for (size_t i = 0; i < tail.size(); ++i) {
      if (i > 0) out += ",";
      AppendDecisionRecordJson(out, tail[i]);
    }
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace ampere
