#include "src/obs/trace_export.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/json.h"
#include "src/common/text_format.h"

namespace ampere {
namespace obs {

namespace {

// Assigns stable tids to tracks in order of first appearance.
class TrackTable {
 public:
  int TidFor(const std::string& track) {
    auto [it, inserted] = tids_.try_emplace(track, next_tid_);
    if (inserted) {
      names_.push_back(track);
      ++next_tid_;
    }
    return it->second;
  }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, int> tids_;
  std::vector<std::string> names_;
  int next_tid_ = 1;
};

void AppendEventArgs(std::string& out, const TimelineEvent& e) {
  out += "\"args\":{\"type\":\"";
  out += TimelineEventTypeName(e.type);
  out += "\",\"a\":";
  out += FormatDouble(e.a);
  out += ",\"b\":";
  out += FormatDouble(e.b);
  out += ",\"c\":";
  out += std::to_string(e.c);
  out += ",\"seq\":";
  out += std::to_string(e.seq);
  out += "}";
}

}  // namespace

std::string TrackNameFor(const TimelineEvent& event) {
  std::string track(DomainPrefix(event.domain));
  track += TimelineEventSource(event.type);
  return track;
}

std::string BuildChromeTraceJson(const FlightRecorder& recorder,
                                 std::string_view run_label) {
  TrackTable tracks;
  std::string events;
  recorder.ForEach([&](const TimelineEvent& e) {
    const int tid = tracks.TidFor(TrackNameFor(e));
    if (!events.empty()) events += ",\n";
    events += "{\"name\":\"";
    const char* ph = "i";
    if (e.type == TimelineEventType::kTickBegin) {
      ph = "B";
      events += "tick";
    } else if (e.type == TimelineEventType::kTickEnd) {
      ph = "E";
      events += "tick";
    } else {
      events += TimelineEventTypeName(e.type);
    }
    events += "\",\"ph\":\"";
    events += ph;
    events += "\"";
    if (*ph == 'i') events += ",\"s\":\"t\"";
    events += ",\"ts\":";
    events += std::to_string(e.time.micros());
    events += ",\"pid\":1,\"tid\":";
    events += std::to_string(tid);
    events += ",";
    AppendEventArgs(events, e);
    events += "}";
  });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
                    "\"ampere.trace.v1\",\"run\":\"";
  out += JsonEscape(run_label);
  out += "\"},\"traceEvents\":[\n";
  // Track metadata first so viewers label threads before any slice arrives.
  const std::vector<std::string>& names = tracks.names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(static_cast<int>(i) + 1);
    out += ",\"args\":{\"name\":\"";
    out += JsonEscape(names[i]);
    out += "\"}}";
  }
  if (!events.empty()) {
    if (!names.empty()) out += ",\n";
    out += events;
  }
  out += "\n]}";
  return out;
}

bool WriteChromeTraceFile(const FlightRecorder& recorder,
                          const std::string& path,
                          std::string_view run_label) {
  const std::string json = BuildChromeTraceJson(recorder, run_label);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (written != json.size()) std::fclose(f);
  return ok;
}

}  // namespace obs
}  // namespace ampere
