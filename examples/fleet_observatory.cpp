// Fleet observatory: a live text dashboard over a controlled multi-row fleet.
//
//   build/examples/fleet_observatory [days] [--frame-hours=H]
//                                    [--log-level=debug|info|warning|error|off]
//
// Runs a 4-row fleet with distinct per-row products for N simulated days
// with an Ampere controller deployed on every row, advancing the simulation
// one frame (default 6 h) at a time. Each row's controller is scoped under
// its own obs domain ("row0/".."row3/"), exactly how a campus scopes its
// DCs, so the registry splits into per-row metric columns and the flight
// recorder labels every timeline event with the row it came from. After
// each frame the dashboard renders what a fleet operator's terminal would
// show:
//
//   - per-row power against the control budget and the frozen-server count,
//   - per-row metric columns (one column per control domain) plus the
//     unscoped fleet-wide counters and the span profile,
//   - the recent-events panel: the tail of the flight recorder's ring,
//   - the tail of each controller's DecisionJournal (the audit log),
//   - the journal-fed model-drift gauges (rolling RMSE, E_t utilization).
//
// The final frame also prints the closing §2.2-style measurement study
// (per-row utilization, unused power, E_t profile) and a Prometheus text
// exposition sample, so the example doubles as living documentation for
// docs/observability.md.
//
// Log verbosity follows the harness convention: AMPERE_LOG_LEVEL in the
// environment, overridden by --log-level (both parsed by ParseHarnessArgs,
// mirroring --jobs / AMPERE_JOBS). A day count or --frame-hours that does
// not parse or is out of range prints "<flag>: reason" to stderr and exits
// with status 2.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/control/et_estimator.h"
#include "src/core/controller.h"
#include "src/core/fleet.h"
#include "src/harness/runner.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/stats/descriptive.h"

using namespace ampere;  // NOLINT: example brevity.

namespace {

using Controllers = std::vector<std::unique_ptr<AmpereController>>;

void RenderPowerPanel(Fleet& fleet, const Controllers& controllers,
                      const std::vector<double>& domain_budgets) {
  std::printf("  %-6s %10s %10s %8s %8s %8s\n", "row", "watts", "budget",
              "P_norm", "frozen", "u");
  for (int32_t r = 0; r < fleet.dc().num_rows(); ++r) {
    size_t d = static_cast<size_t>(r);
    double watts = fleet.monitor().LatestRowWatts(RowId(r));
    double budget = domain_budgets[d];
    std::printf("  row%-3d %10.0f %10.0f %8.3f %8zu %8.3f\n", r, watts,
                budget, watts / budget, controllers[d]->frozen_count(0),
                controllers[d]->freeze_ratio(0));
  }
}

// Per-domain metric columns: every "rowK/" counter and gauge becomes one
// row of the table with one column per control domain — the same split a
// campus gets per DC. Fleet-wide (unscoped) counters follow on one line.
void RenderPerRowMetricColumns(const obs::MetricsSnapshot& snapshot,
                               int num_rows) {
  std::vector<std::string> prefixes;
  for (int r = 0; r < num_rows; ++r) {
    prefixes.push_back("row" + std::to_string(r) + "/");
  }
  auto scoped_base = [&prefixes](const std::string& name) -> std::string {
    for (const std::string& p : prefixes) {
      if (name.rfind(p, 0) == 0) return name.substr(p.size());
    }
    return "";
  };

  std::vector<std::string> counter_names;
  for (const obs::CounterValue& c : snapshot.counters) {
    std::string base = scoped_base(c.name);
    if (!base.empty() && std::find(counter_names.begin(), counter_names.end(),
                                   base) == counter_names.end()) {
      counter_names.push_back(base);
    }
  }
  std::sort(counter_names.begin(), counter_names.end());

  std::printf("  %-26s", "counter");
  for (int r = 0; r < num_rows; ++r) {
    std::printf(" %10s", ("row" + std::to_string(r)).c_str());
  }
  std::printf("\n");
  for (const std::string& base : counter_names) {
    std::printf("  %-26s", base.c_str());
    for (const std::string& p : prefixes) {
      const uint64_t* value = snapshot.FindCounter(p + base);
      if (value != nullptr) {
        std::printf(" %10llu", static_cast<unsigned long long>(*value));
      } else {
        std::printf(" %10s", "-");
      }
    }
    std::printf("\n");
  }

  std::vector<std::string> gauge_names;
  for (const obs::GaugeValue& g : snapshot.gauges) {
    std::string base = scoped_base(g.name);
    if (!base.empty() && std::find(gauge_names.begin(), gauge_names.end(),
                                   base) == gauge_names.end()) {
      gauge_names.push_back(base);
    }
  }
  std::sort(gauge_names.begin(), gauge_names.end());
  for (const std::string& base : gauge_names) {
    std::printf("  %-26s", base.c_str());
    for (const std::string& p : prefixes) {
      const double* value = snapshot.FindGauge(p + base);
      if (value != nullptr) {
        std::printf(" %10.4g", *value);
      } else {
        std::printf(" %10s", "-");
      }
    }
    std::printf("\n");
  }

  std::printf("  fleet-wide:");
  for (const obs::CounterValue& c : snapshot.counters) {
    if (scoped_base(c.name).empty()) {
      std::printf("  %s=%llu", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
    }
  }
  std::printf("\n  spans:\n");
  std::printf("  %-28s %10s %12s %12s %12s\n", "span", "count", "mean_us",
              "p50_us", "p99_us");
  for (const obs::SpanStats& s : snapshot.spans) {
    std::printf("  %-28s %10llu %12.2f %12.2f %12.2f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.mean_ns() / 1e3,
                s.p50_ns() / 1e3, s.p99_ns() / 1e3);
  }
}

// The flight recorder's ring, newest-last: what just happened, per track.
void RenderRecentEvents(const obs::FlightRecorder& recorder, size_t n) {
  std::printf("  %-6s %8s %-20s %-16s %11s %11s %8s\n", "seq", "hour",
              "event", "track", "a", "b", "c");
  for (const obs::TimelineEvent& e : recorder.Tail(n)) {
    const std::string track = std::string(obs::DomainPrefix(e.domain)) +
                              std::string(obs::TimelineEventSource(e.type));
    std::printf("  %-6llu %8.2f %-20s %-16s %11.4g %11.4g %8llu\n",
                static_cast<unsigned long long>(e.seq), e.time.hours(),
                std::string(obs::TimelineEventTypeName(e.type)).c_str(),
                track.c_str(), e.a, e.b,
                static_cast<unsigned long long>(e.c));
  }
}

void RenderJournalTails(const Controllers& controllers, size_t n_per_row) {
  std::printf("  %-6s %8s %6s %8s %8s %6s %6s %6s %6s\n", "seq", "hour",
              "row", "P_norm", "u", "nf", "frz", "thaw", "cap");
  for (const auto& controller : controllers) {
    for (const obs::DecisionRecord& r : controller->journal().Tail(n_per_row)) {
      std::printf("  %-6llu %8.2f %6s %8.3f %8.3f %6u %6u %6u %6s\n",
                  static_cast<unsigned long long>(r.seq), r.time.hours(),
                  r.domain.c_str(), r.normalized_power, r.u, r.n_freeze,
                  r.freeze_ops, r.unfreeze_ops, r.cap_engaged ? "yes" : "no");
    }
  }
}

void RenderDriftPanel(const Controllers& controllers, size_t window) {
  std::printf("  %-6s %14s %16s\n", "row", "model_rmse", "et_margin_util");
  for (size_t r = 0; r < controllers.size(); ++r) {
    std::string domain = "row" + std::to_string(r);
    auto rmse = controllers[r]->journal().RollingModelRmse(window, domain);
    auto util =
        controllers[r]->journal().RollingEtMarginUtilization(window, domain);
    std::printf("  row%-3zu %14s %16s\n", r,
                rmse ? std::to_string(*rmse).c_str() : "-",
                util ? std::to_string(*util).c_str() : "-");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // ParseHarnessArgs applies AMPERE_LOG_LEVEL, then --log-level on top —
  // the same precedence every bench uses. Positionals stay ours.
  harness::HarnessArgs args = harness::ParseHarnessArgs(argc, argv);
  int days = 2;
  double frame_hours = 6.0;
  auto fail = [](const std::string& flag, const char* wants,
                 const std::string& value) {
    std::fprintf(stderr, "%s: wants %s, got '%s'\n", flag.c_str(), wants,
                 value.c_str());
    return 2;
  };
  const std::string kFrameHours = "--frame-hours=";
  for (const std::string& arg : args.positional) {
    if (arg.rfind(kFrameHours, 0) == 0) {
      const std::string value = arg.substr(kFrameHours.size());
      const std::optional<double> hours = harness::ParseFlagNumber(
          value, std::numeric_limits<double>::denorm_min(), 24.0 * 365.0);
      if (!hours.has_value()) {
        return fail("--frame-hours", "hours in (0, 8760]", value);
      }
      frame_hours = *hours;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag\n", arg.c_str());
      return 2;
    } else {
      const std::optional<int> parsed =
          harness::ParseFlagNumber(arg, 1, 36500);
      if (!parsed.has_value()) {
        return fail("days", "a whole number of days in [1, 36500]", arg);
      }
      days = *parsed;
    }
  }

  // The dashboard's own registry and flight recorder: every instrumented
  // path below lands here, and every timeline event lands in the ring.
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(&registry);
  obs::FlightRecorder recorder(4096);
  obs::ScopedFlightRecorder recorder_scope(&recorder);

  FleetConfig config;
  config.seed = 31;
  config.topology.num_rows = 4;
  config.topology.racks_per_row = 5;
  config.topology.servers_per_rack = 20;
  config.products = {{0.70, 3.0, 0.20, 0.02},
                     {0.82, 9.0, 0.12, 0.03},
                     {0.76, 15.0, 0.25, 0.02},
                     {0.68, 21.0, 0.18, 0.025}};
  Fleet fleet(config);

  // Deploy an Ampere controller on every row, as production would (§3.2):
  // one controller per row, scoped under its own obs domain ("rowK/", the
  // campus "dcK/" convention), budget set below the rated row budget so the
  // diurnal peaks actually engage the controller now and then.
  AmpereControllerConfig controller_config;
  controller_config.effect = FreezeEffectModel(0.05);
  controller_config.et = EtEstimator::Constant(0.02);
  std::vector<double> domain_budgets;
  std::vector<std::vector<ServerId>> row_servers(
      static_cast<size_t>(fleet.dc().num_rows()));
  for (int32_t s = 0; s < fleet.dc().num_servers(); ++s) {
    RowId row = fleet.dc().row_of(ServerId(s));
    row_servers[static_cast<size_t>(row.index())].push_back(ServerId(s));
  }
  Controllers controllers;
  for (int32_t r = 0; r < fleet.dc().num_rows(); ++r) {
    std::string group = "row" + std::to_string(r);
    fleet.monitor().RegisterGroup(group,
                                  row_servers[static_cast<size_t>(r)]);
    double budget = 0.85 * fleet.dc().row_budget_watts(RowId(r));
    domain_budgets.push_back(budget);
    auto controller = std::make_unique<AmpereController>(
        &fleet.scheduler(), &fleet.monitor(), controller_config);
    controller->SetObsDomain(obs::InternDomain(group + "/"));
    controller->AddDomain({group, row_servers[static_cast<size_t>(r)],
                           budget});
    // Tick 1 s after the monitor's minute samples, the production offset.
    controller->Start(&fleet.sim(),
                      SimTime::Minutes(1) + SimTime::Seconds(1));
    controllers.push_back(std::move(controller));
  }

  const SimTime end = SimTime::Hours(24.0 * days + 2);
  std::printf("fleet observatory: %d rows, %d day(s), one frame every %.1f h "
              "(log level: %s)\n",
              fleet.dc().num_rows(), days, frame_hours,
              LogLevelName(GetLogLevel()));

  int frame = 0;
  for (SimTime now; now < end;) {
    now = std::min(now + SimTime::Hours(frame_hours), end);
    fleet.Run(now);
    ++frame;

    uint64_t decisions = 0;
    for (const auto& controller : controllers) {
      decisions += controller->journal().total_appended();
    }

    std::printf("\n========================= frame %d — t = %.1f h "
                "=========================\n", frame, now.hours());
    std::printf("\n[power]\n");
    RenderPowerPanel(fleet, controllers, domain_budgets);
    std::printf("\n[metrics by domain]\n");
    RenderPerRowMetricColumns(registry.Snapshot(), fleet.dc().num_rows());
    std::printf("\n[recent events] (%llu recorded, ring keeps %zu)\n",
                static_cast<unsigned long long>(recorder.total_appended()),
                recorder.capacity());
    RenderRecentEvents(recorder, 10);
    std::printf("\n[journal tails] (%llu decisions total)\n",
                static_cast<unsigned long long>(decisions));
    RenderJournalTails(controllers, 2);
    std::printf("\n[model drift] (window=%zu ticks/row)\n",
                controller_config.drift_window);
    RenderDriftPanel(controllers, controller_config.drift_window);
  }

  // Closing measurement study (§2.2), as before the dashboard upgrade.
  SimTime from = SimTime::Hours(2);
  std::printf("\n=================== closing survey (%d day(s)) "
              "===================\n", days);
  std::printf("\nper-row utilization and unused power (Eq. 1):\n");
  std::printf("%6s %12s %12s %12s %14s\n", "row", "mean_util", "max_util",
              "budget_W", "unused_mean_W");
  for (int32_t r = 0; r < fleet.dc().num_rows(); ++r) {
    std::vector<double> watts;
    fleet.db()
        .QueryStitched(PowerMonitor::RowSeries(RowId(r)), from, end)
        .ForEachPoint([&](const TimePoint& p) { watts.push_back(p.value); });
    Summary s = Summarize(watts);
    double budget = fleet.dc().row_budget_watts(RowId(r));
    std::printf("%6d %12.3f %12.3f %12.0f %14.0f\n", r, s.mean / budget,
                s.max / budget, budget, budget - s.mean);
  }

  std::vector<double> dc_watts;
  fleet.db()
      .QueryStitched(PowerMonitor::kTotalSeries, from, end)
      .ForEachPoint([&](const TimePoint& p) { dc_watts.push_back(p.value); });
  Summary dc_s = Summarize(dc_watts);
  double dc_budget = fleet.dc().total_budget_watts();
  std::printf("\ndata center: mean utilization %.3f of %.0f W budget "
              "(unused %.0f W on average)\n",
              dc_s.mean / dc_budget, dc_budget, dc_budget - dc_s.mean);

  // The E_t profile an Ampere deployment on row 0 would use next.
  std::vector<double> row0_norm;
  double row0_budget = fleet.dc().row_budget_watts(RowId(0));
  fleet.db()
      .QueryStitched(PowerMonitor::RowSeries(RowId(0)), from, end)
      .ForEachPoint(
          [&](const TimePoint& p) { row0_norm.push_back(p.value / row0_budget); });
  EtEstimator et = EtEstimator::FromHistory(row0_norm, /*start=*/120);
  std::printf("\nrow-0 hourly E_t profile (99.5th pct 1-min increase):\n");
  for (int h = 0; h < 24; ++h) {
    std::printf("  %02d:00  %.4f\n", h, et.per_hour()[static_cast<size_t>(h)]);
  }

  // Exposition sample: the same snapshot a scrape endpoint would serve.
  std::printf("\nprometheus exposition sample (first lines):\n");
  std::string prom = registry.Snapshot().ToPrometheusText();
  size_t lines = 0, pos = 0;
  while (pos < prom.size() && lines < 12) {
    size_t nl = prom.find('\n', pos);
    if (nl == std::string::npos) nl = prom.size();
    std::printf("  %.*s\n", static_cast<int>(nl - pos), prom.c_str() + pos);
    pos = nl + 1;
    ++lines;
  }
  return 0;
}
