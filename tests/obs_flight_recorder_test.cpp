// Flight recorder semantics: ring eviction, tail selection, macro
// scoping, anomaly policy (trigger types, cooldown, per-run cap), the
// Perfetto/Chrome trace export schema, the postmortem artifact, and the
// observation-only contract (a closed loop is bit-identical with the
// recorder on or off).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/campus_experiment.h"
#include "src/core/experiment.h"
#include "src/faults/presets.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"
#include "tests/scratch_dir.h"

namespace ampere {
namespace obs {
namespace {

using Type = TimelineEventType;

// Structural JSON check: balanced braces/brackets outside strings, string
// escapes honored. Not a full parser, but catches truncation, stray commas
// into structure, and unescaped quotes — the failure modes of hand-built
// emitters.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

// Every ("tid", "ts") pair of the trace's slice/instant events, in emission
// order (metadata events carry no "ts" and are skipped).
std::vector<std::pair<int, long long>> TraceTimestamps(
    const std::string& json) {
  std::vector<std::pair<int, long long>> out;
  size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    const long long ts = std::stoll(json.substr(pos + 5));
    const size_t tid_pos = json.find("\"tid\":", pos);
    EXPECT_NE(tid_pos, std::string::npos);
    out.emplace_back(std::stoi(json.substr(tid_pos + 6)), ts);
    pos = tid_pos;
  }
  return out;
}

TEST(FlightRecorderTest, RingKeepsMostRecentEventsAfterEviction) {
  FlightRecorder recorder(4);
  EXPECT_TRUE(recorder.empty());
  for (int i = 0; i < 6; ++i) {
    recorder.Append(0, SimTime::Minutes(i), Type::kTickBegin,
                    static_cast<double>(i));
  }
  EXPECT_EQ(recorder.total_appended(), 6u);
  EXPECT_EQ(recorder.size(), 4u);

  const std::vector<TimelineEvent> all = recorder.Tail(recorder.capacity());
  ASSERT_EQ(all.size(), 4u);
  // Oldest two (seq 0, 1) were evicted; survivors are in append order.
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i + 2);
    EXPECT_DOUBLE_EQ(all[i].a, static_cast<double>(i + 2));
  }
}

TEST(FlightRecorderTest, TailAndWindowSelectSubranges) {
  FlightRecorder recorder(16);
  for (int i = 0; i < 10; ++i) {
    recorder.Append(0, SimTime::Minutes(i), Type::kTickEnd);
  }
  const std::vector<TimelineEvent> tail = recorder.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, 7u);
  EXPECT_EQ(tail.back().seq, 9u);
  // Asking for more than live returns everything. (The time window of a
  // postmortem: PostmortemJsonWindowsEventsAndTailsJournal.)
  EXPECT_EQ(recorder.Tail(99).size(), 10u);
}

TEST(FlightRecorderTest, MacroGatesOnScopeAndRuntimeSwitch) {
  FlightRecorder recorder(8);
  // No recorder installed: the macro is a null-check no-op.
  AMPERE_TIMELINE(0, SimTime::Minutes(1), Type::kTickBegin, 1.0);
  EXPECT_TRUE(recorder.empty());
  {
    ScopedFlightRecorder scope(&recorder);
    AMPERE_TIMELINE(0, SimTime::Minutes(1), Type::kTickBegin, 1.0, 2.0,
                    uint64_t{3});
    {
      // Nested null scope suspends recording, then restores.
      ScopedFlightRecorder suspend(nullptr);
      AMPERE_TIMELINE(0, SimTime::Minutes(3), Type::kTickEnd);
    }
    AMPERE_TIMELINE(InternDomain("dc5/"), SimTime::Minutes(4),
                    Type::kTickEnd);
  }
  AMPERE_TIMELINE(0, SimTime::Minutes(5), Type::kTickEnd);

  const std::vector<TimelineEvent> all = recorder.Tail(recorder.capacity());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].type, Type::kTickBegin);
  EXPECT_DOUBLE_EQ(all[0].a, 1.0);
  EXPECT_DOUBLE_EQ(all[0].b, 2.0);
  EXPECT_EQ(all[0].c, 3u);
  EXPECT_EQ(all[1].time, SimTime::Minutes(4));
  EXPECT_EQ(all[0].domain, 0u);
  EXPECT_EQ(all[1].domain, InternDomain("dc5/"));
}

TEST(FlightRecorderTest, AnomalySinkHonorsPolicyCooldownAndCap) {
  FlightRecorder recorder(32);
  AnomalyPolicy policy;
  policy.on_breaker_trip = true;
  policy.on_capacity_violation = true;
  policy.on_degraded_enter = false;
  policy.max_postmortems = 3;
  policy.cooldown = SimTime::Minutes(10);
  recorder.SetAnomalyPolicy(policy);
  std::vector<TimelineEvent> fired;
  recorder.SetAnomalySink(
      [&fired](const TimelineEvent& trigger) { fired.push_back(trigger); });

  recorder.Append(0, SimTime::Minutes(1), Type::kTickBegin);      // No trigger.
  recorder.Append(0, SimTime::Minutes(2), Type::kDegradedEnter);  // Disabled.
  recorder.Append(0, SimTime::Minutes(3), Type::kBreakerTrip);    // Fires.
  recorder.Append(0, SimTime::Minutes(4), Type::kCapacityViolation);  // Cools.
  recorder.Append(0, SimTime::Minutes(13), Type::kCapacityViolation);  // Fires.
  recorder.Append(0, SimTime::Minutes(30), Type::kBreakerTrip);  // Fires (3rd).
  recorder.Append(0, SimTime::Minutes(60), Type::kBreakerTrip);  // Over cap.

  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(recorder.anomalies_fired(), 3u);
  EXPECT_EQ(fired[0].type, Type::kBreakerTrip);
  EXPECT_EQ(fired[0].time, SimTime::Minutes(3));
  EXPECT_EQ(fired[1].type, Type::kCapacityViolation);
  EXPECT_EQ(fired[1].time, SimTime::Minutes(13));
  EXPECT_EQ(fired[2].time, SimTime::Minutes(30));
}

TEST(FlightRecorderTest, EventJsonCarriesAllFields) {
  TimelineEvent event;
  event.seq = 7;
  event.time = SimTime::Seconds(90);
  event.type = Type::kFreezeRpc;
  event.domain = InternDomain("dc2/");
  event.a = 2.0;
  event.b = 1.0;
  event.c = 41;
  const std::string json = TimelineEventToJson(event);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"time_us\":90000000"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"freeze_rpc\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"controller\""), std::string::npos);
  EXPECT_NE(json.find("\"domain\":\"dc2/\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":41"), std::string::npos);
}

TEST(FlightRecorderTest, PostmortemJsonWindowsEventsAndTailsJournal) {
  FlightRecorder recorder(64);
  recorder.Append(0, SimTime::Minutes(1), Type::kTickBegin);   // Before window.
  recorder.Append(0, SimTime::Minutes(12), Type::kTickBegin);  // In window.
  recorder.Append(0, SimTime::Minutes(15), Type::kCapacityViolation, 1.02);
  const TimelineEvent trigger = recorder.Tail(1).front();
  recorder.Append(0, SimTime::Minutes(15), Type::kTickEnd);    // After trigger.
  recorder.Append(0, SimTime::Minutes(16), Type::kTickBegin);

  MetricsRegistry registry;
  registry.CounterAdd("controller.ticks", 5);

  DecisionJournal journal(16);
  for (int i = 0; i < 4; ++i) {
    DecisionRecord record;
    record.time = SimTime::Minutes(i);
    record.domain = "exp";
    record.observed_watts = 100.0 + i;
    journal.Append(record);
  }

  PostmortemConfig config;
  config.window = SimTime::Minutes(10);
  config.journal_tail = 2;
  const std::string json = BuildPostmortemJson(
      trigger, recorder, registry.Snapshot(), &journal, config, "unit");

  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"schema\":\"ampere.postmortem.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"run\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":{\"seq\":2"), std::string::npos);
  // The window [5 min, 15 min] keeps seq 1 and the trigger itself; the
  // minute-1 event is too old and post-trigger events are excluded. Scope
  // the seq checks to the events array — journal records carry seqs too.
  const size_t events_begin = json.find("\"events\":[");
  const size_t events_end = json.find("],\"metrics\":");
  ASSERT_NE(events_begin, std::string::npos);
  ASSERT_NE(events_end, std::string::npos);
  const std::string events = json.substr(events_begin, events_end - events_begin);
  EXPECT_EQ(events.find("\"seq\":0,"), std::string::npos);
  EXPECT_NE(events.find("\"seq\":1,"), std::string::npos);
  EXPECT_EQ(events.find("\"seq\":3,"), std::string::npos);
  EXPECT_EQ(events.find("\"seq\":4,"), std::string::npos);
  // Metrics snapshot rides along.
  EXPECT_NE(json.find("\"controller.ticks\":5"), std::string::npos);
  // Journal tail: the LAST two records only.
  EXPECT_NE(json.find("\"journal_tail\""), std::string::npos);
  EXPECT_EQ(json.find("\"observed_watts\":101"), std::string::npos);
  EXPECT_NE(json.find("\"observed_watts\":102"), std::string::npos);
  EXPECT_NE(json.find("\"observed_watts\":103"), std::string::npos);

  // A null journal yields an empty tail, not a crash.
  const std::string no_journal = BuildPostmortemJson(
      trigger, recorder, registry.Snapshot(), nullptr, config, "unit");
  EXPECT_NE(no_journal.find("\"journal_tail\":[]"), std::string::npos);
}

TEST(TraceExportTest, ChromeTraceSchemaTracksAndPhases) {
  FlightRecorder recorder(64);
  const DomainId dc0 = InternDomain("dc0/");
  const DomainId dc1 = InternDomain("dc1/");
  recorder.Append(dc0, SimTime::Minutes(1), Type::kTickBegin, 10.0);
  recorder.Append(dc0, SimTime::Minutes(1), Type::kTickEnd);
  recorder.Append(dc1, SimTime::Minutes(1), Type::kTickBegin);
  recorder.Append(dc0, SimTime::Minutes(2), Type::kBreakerMarginEnter, 95.0,
                  100.0, 3);
  recorder.Append(0, SimTime::Minutes(3), Type::kCampusReplan, 500.0, 480.0,
                  1);

  const std::string json = BuildChromeTraceJson(recorder, "trace-test");
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"ampere.trace.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"run\":\"trace-test\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);

  // One thread_name metadata record per distinct (domain, source) track,
  // before any slice.
  EXPECT_NE(json.find("\"args\":{\"name\":\"dc0/controller\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"dc1/controller\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"dc0/power\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"campus\"}"), std::string::npos);
  EXPECT_LT(json.find("\"ph\":\"M\""), json.find("\"ph\":\"B\""));

  // Tick edges pair as B/E slices named "tick"; everything else is an
  // instant with thread scope.
  EXPECT_NE(json.find("\"name\":\"tick\",\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tick\",\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"breaker_margin_enter\",\"ph\":\"i\",\"s\":"
                      "\"t\""),
            std::string::npos);

  // Simulation-time timestamps in microseconds.
  EXPECT_NE(json.find("\"ts\":60000000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":180000000"), std::string::npos);
}

TEST(TraceExportTest, CampusTraceHasOneTrackPerDcWithMonotonicTimestamps) {
  ExperimentConfig config;
  config.seed = 20160411;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 8;  // 24 servers per DC.
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(1);
  config.campus.enabled = true;
  config.campus.num_datacenters = 4;
  config.campus.dc_target_power = {0.99, 0.95, 0.90, 0.85};
  config.obs.flight_recorder = true;

  CampusExperiment experiment(config);
  CampusResult result = experiment.Run();
  ASSERT_NE(experiment.flight_recorder(), nullptr);
  EXPECT_GT(result.timeline_events, 0u);

  const std::string json =
      BuildChromeTraceJson(*experiment.flight_recorder(), "campus");
  EXPECT_TRUE(JsonBalanced(json));
  // Every DC gets its own controller track; campus re-plans get theirs.
  for (int d = 0; d < 4; ++d) {
    const std::string track = "\"args\":{\"name\":\"dc" + std::to_string(d) +
                              "/controller\"}";
    EXPECT_NE(json.find(track), std::string::npos) << "missing track " << d;
  }
  EXPECT_NE(json.find("\"args\":{\"name\":\"campus\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"campus_replan\""), std::string::npos);

  // Timestamps are per-track monotonic (sim time never runs backwards, and
  // the exporter preserves append order).
  const auto stamps = TraceTimestamps(json);
  ASSERT_FALSE(stamps.empty());
  std::map<int, long long> last;
  for (const auto& [tid, ts] : stamps) {
    auto it = last.find(tid);
    if (it != last.end()) {
      EXPECT_LE(it->second, ts) << "track " << tid << " went backwards";
    }
    last[tid] = ts;
  }
  EXPECT_GE(last.size(), 5u);  // 4 controller tracks + campus.
}

TEST(PostmortemArtifactTest, ChaosRunWritesValidatedPostmortem) {
  // A deliberately over-budget run (target 1.03) under the moderate chaos
  // preset, with the breaker-margin threshold forced low so margin
  // crossings definitely appear in the window.
  ExperimentConfig config;
  config.seed = 20160412;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 4;
  config.topology.servers_per_rack = 20;  // 80 servers.
  config.over_provision_ratio = 0.25;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 1.03, 0.25);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Hours(1);
  config.duration = SimTime::Hours(2);
  config.monitor.breaker_margin_fraction = 0.5;
  auto faults = faults::PresetByName("moderate");
  ASSERT_TRUE(faults.has_value());
  config.faults = *faults;
  config.faults.seed = 99;

  const ScratchDir scratch("postmortem");
  const std::string& dir = scratch.path();
  config.obs.postmortem_dir = dir;
  config.obs.run_label = "chaos test";
  config.obs.trace_path = dir + "/chaos.trace.json";

  ExperimentResult result = RunExperimentToResult(config);
  // Over-budget by 3% for two hours: violations are certain, so at least
  // one postmortem fired and both artifacts are on the result.
  ASSERT_GE(result.artifacts.size(), 2u);
  EXPECT_EQ(result.artifacts.front(), config.obs.trace_path);
  EXPECT_GT(result.timeline_events, 0u);

  const std::string trace = ReadFileOrEmpty(result.artifacts.front());
  EXPECT_TRUE(JsonBalanced(trace));
  EXPECT_NE(trace.find("\"schema\":\"ampere.trace.v1\""), std::string::npos);
  EXPECT_NE(trace.find("breaker_margin_enter"), std::string::npos);

  const std::string postmortem = ReadFileOrEmpty(result.artifacts[1]);
  ASSERT_FALSE(postmortem.empty()) << result.artifacts[1];
  EXPECT_TRUE(JsonBalanced(postmortem));
  EXPECT_NE(postmortem.find("\"schema\":\"ampere.postmortem.v1\""),
            std::string::npos);
  // Spaces in the label are sanitized out of the file name but preserved in
  // the payload.
  EXPECT_NE(result.artifacts[1].find("postmortem_chaos-test_"),
            std::string::npos);
  EXPECT_NE(postmortem.find("\"run\":\"chaos test\""), std::string::npos);

  // Validate the event window: every "time_us" in the events array lies in
  // [trigger - window, trigger].
  const size_t trigger_pos = postmortem.find("\"trigger\":{");
  ASSERT_NE(trigger_pos, std::string::npos);
  const size_t trigger_time_pos = postmortem.find("\"time_us\":", trigger_pos);
  const long long trigger_us =
      std::stoll(postmortem.substr(trigger_time_pos + 10));
  const size_t window_pos = postmortem.find("\"window_us\":");
  ASSERT_NE(window_pos, std::string::npos);
  const long long window_us = std::stoll(postmortem.substr(window_pos + 12));
  const size_t events_pos = postmortem.find("\"events\":[");
  const size_t events_end = postmortem.find("],\"metrics\":");
  ASSERT_NE(events_pos, std::string::npos);
  ASSERT_NE(events_end, std::string::npos);
  size_t pos = events_pos;
  size_t in_window = 0;
  while ((pos = postmortem.find("\"time_us\":", pos + 1)) < events_end) {
    const long long us = std::stoll(postmortem.substr(pos + 10));
    EXPECT_GE(us, trigger_us - window_us);
    EXPECT_LE(us, trigger_us);
    ++in_window;
  }
  EXPECT_GT(in_window, 1u);

  // Metrics snapshot and journal tail are present and non-trivial.
  EXPECT_NE(postmortem.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(postmortem.find("controller.ticks"), std::string::npos);
  const size_t tail_pos = postmortem.find("\"journal_tail\":[");
  ASSERT_NE(tail_pos, std::string::npos);
  EXPECT_NE(postmortem.find("\"observed_watts\"", tail_pos),
            std::string::npos);
}

TEST(PostmortemArtifactTest, CampusRunWritesTraceThenPostmortems) {
  // A 2-DC campus whose DC 0 runs hot (target 1.25), so its experiment
  // group violates and the anomaly sink fires campus postmortems.
  ExperimentConfig config;
  config.seed = 20160414;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 3;
  config.topology.servers_per_rack = 8;  // 24 servers per DC.
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(1);
  config.campus.enabled = true;
  config.campus.num_datacenters = 2;
  config.campus.dc_target_power = {1.25, 0.85};

  const ScratchDir scratch("campus_artifacts");
  const std::string& dir = scratch.path();
  config.obs.trace_path = dir + "/campus.trace.json";
  config.obs.postmortem_dir = dir + "/postmortems";

  CampusExperiment experiment(config);
  const CampusResult result = experiment.Run();
  // Trace first, then at least one postmortem.
  ASSERT_GE(result.artifacts.size(), 2u);
  EXPECT_EQ(result.artifacts.front(), config.obs.trace_path);
  EXPECT_TRUE(JsonBalanced(ReadFileOrEmpty(result.artifacts.front())));

  // Postmortems are numbered in trigger order under the default label, and
  // carry the allocator's campus/dcK records as their journal tail.
  bool saw_allocator_records = false;
  for (size_t i = 1; i < result.artifacts.size(); ++i) {
    EXPECT_EQ(result.artifacts[i], config.obs.postmortem_dir +
                                       "/postmortem_campus_" +
                                       std::to_string(i) + ".json");
    const std::string postmortem = ReadFileOrEmpty(result.artifacts[i]);
    ASSERT_FALSE(postmortem.empty()) << result.artifacts[i];
    EXPECT_TRUE(JsonBalanced(postmortem));
    EXPECT_NE(postmortem.find("\"run\":\"campus\""), std::string::npos);
    const size_t tail = postmortem.find("\"journal_tail\":[");
    ASSERT_NE(tail, std::string::npos);
    if (postmortem.find("\"domain\":\"campus/dc0\"", tail) !=
            std::string::npos &&
        postmortem.find("\"domain\":\"campus/dc1\"", tail) !=
            std::string::npos) {
      saw_allocator_records = true;
    }
  }
  EXPECT_TRUE(saw_allocator_records);
}

TEST(JsonEscapeArtifactTest, TabInRunLabelIsEscapedInTraceAndPostmortem) {
  FlightRecorder recorder(8);
  recorder.Append(0, SimTime::Minutes(1), Type::kCapacityViolation, 1.02);
  const std::string label = "run\tone\x01";
  const std::string trace = BuildChromeTraceJson(recorder, label);
  EXPECT_NE(trace.find("\"run\":\"run\\tone\\u0001\""), std::string::npos)
      << trace;
  EXPECT_EQ(trace.find('\t'), std::string::npos);

  MetricsRegistry registry;
  const std::string postmortem =
      BuildPostmortemJson(recorder.Tail(1).front(), recorder,
                          registry.Snapshot(), nullptr, PostmortemConfig{},
                          label);
  EXPECT_NE(postmortem.find("\"run\":\"run\\tone\\u0001\""), std::string::npos)
      << postmortem;
  EXPECT_EQ(postmortem.find('\t'), std::string::npos);
}

TEST(RecorderIdentityTest, ClosedLoopIsBitIdenticalWithRecorderOnOrOff) {
  ExperimentConfig config;
  config.seed = 20160413;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 4;
  config.topology.servers_per_rack = 20;
  config.over_provision_ratio = 0.25;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 0.97, 0.25);
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = SimTime::Hours(1);

  ExperimentResult off = RunExperimentToResult(config);

  ExperimentConfig with = config;
  with.obs.flight_recorder = true;
  with.obs.recorder_capacity = 64;  // Tiny ring: eviction must not matter.
  ExperimentResult on = RunExperimentToResult(with);

  EXPECT_GT(on.timeline_events, 0u);
  EXPECT_EQ(off.timeline_events, 0u);
  EXPECT_EQ(off.journal.ToJson(), on.journal.ToJson());
  EXPECT_EQ(off.jobs_completed, on.jobs_completed);
  EXPECT_EQ(off.experiment.violations, on.experiment.violations);
  // Bit-exact, not approximately equal.
  EXPECT_EQ(std::memcmp(&off.experiment.p_max, &on.experiment.p_max,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&off.throughput_ratio, &on.throughput_ratio,
                        sizeof(double)),
            0);
  ASSERT_EQ(off.experiment.minutes.size(), on.experiment.minutes.size());
  for (size_t i = 0; i < off.experiment.minutes.size(); ++i) {
    EXPECT_EQ(std::memcmp(&off.experiment.minutes[i].power_watts,
                          &on.experiment.minutes[i].power_watts,
                          sizeof(double)),
              0);
  }
}

}  // namespace
}  // namespace obs
}  // namespace ampere
