// Command-line experiment driver: run calibrations, controlled experiments,
// and fleet observations from flags, with optional CSV export.
//
//   build/examples/ampere_cli --mode=experiment --ro=0.25 --target=0.99
//       --hours=24 --seed=7 --csv=/tmp/run.csv   (flags combine freely)
//   build/examples/ampere_cli --mode=calibrate --hours=24
//   build/examples/ampere_cli --mode=fleet --rows=4 --days=2
//
// Modes:
//   calibrate  — run the Fig. 5 f(u) calibration, print the fitted kr.
//   experiment — run the §4.1.2 controlled experiment, print the Table 2
//                style report (and per-minute CSV with --csv).
//   fleet      — run a multi-row observation, print per-row utilization
//                (and row power CSV with --csv).
//
// A flag whose value does not parse, is out of range, or (for --target)
// is unreachable at the given --ro prints "--flag: reason" to stderr and
// exits with status 2.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/core/fleet.h"
#include "src/harness/runner.h"
#include "src/stats/descriptive.h"
#include "src/telemetry/csv_export.h"

using namespace ampere;  // NOLINT: example brevity.

namespace {

struct Flags {
  std::string mode = "experiment";
  uint64_t seed = 42;
  int servers = 420;
  int rows = 1;
  double ro = 0.25;
  double target = 0.97;
  double kr = 0.013;
  double et = 0.02;
  double hours = 24.0;
  double days = 1.0;
  std::string csv;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

ExperimentConfig MakeExperimentConfig(const Flags& flags) {
  ExperimentConfig config;
  config.seed = flags.seed;
  config.topology.num_rows = 1;
  config.topology.servers_per_rack = 30;
  config.topology.racks_per_row = std::max(1, flags.servers / 30);
  config.over_provision_ratio = flags.ro;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, flags.target, flags.ro);
  config.controller.effect = FreezeEffectModel(flags.kr);
  config.controller.et = EtEstimator::Constant(flags.et);
  config.warmup = SimTime::Hours(2);
  config.duration = SimTime::Hours(flags.hours);
  return config;
}

// Reads `value` into `out` if all of it is a number in [lo, hi].
template <typename T>
bool ReadNumber(const std::string& value, T lo, T hi, T* out) {
  const std::optional<T> parsed = harness::ParseFlagNumber(value, lo, hi);
  if (parsed.has_value()) {
    *out = *parsed;
  }
  return parsed.has_value();
}

// Parses argv into `flags`. Each number is read from its flag's entire
// value (base 10) and must lie in the range the run accepts, so a bad value
// is a FlagError naming its flag instead of a CHECK failure deep inside the
// run.
std::optional<harness::FlagError> Parse(int argc, char** argv, Flags* flags) {
  constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  // Far past any real run, and far inside SimTime's microsecond range.
  constexpr double kMaxHours = 1e9;
  std::optional<LogLevel> log_level;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    const char* wants = nullptr;  // Set when the value does not parse.
    if (ParseFlag(arg, "mode", &value)) {
      flags->mode = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ReadNumber(value, uint64_t{0},
                      std::numeric_limits<uint64_t>::max(), &flags->seed)) {
        wants = "an unsigned integer";
      }
    } else if (ParseFlag(arg, "servers", &value)) {
      if (!ReadNumber(value, 1, kMaxInt, &flags->servers)) {
        wants = "a whole number >= 1";
      }
    } else if (ParseFlag(arg, "rows", &value)) {
      if (!ReadNumber(value, 1, kMaxInt, &flags->rows)) {
        wants = "a whole number >= 1";
      }
    } else if (ParseFlag(arg, "ro", &value)) {
      if (!ReadNumber(value, 0.0, kMax, &flags->ro)) {
        wants = "a number >= 0";
      }
    } else if (ParseFlag(arg, "target", &value)) {
      if (!ReadNumber(value, kAboveZero, kMax, &flags->target)) {
        wants = "a number > 0";
      }
    } else if (ParseFlag(arg, "kr", &value)) {
      if (!ReadNumber(value, kAboveZero, kMax, &flags->kr)) {
        wants = "a number > 0";
      }
    } else if (ParseFlag(arg, "et", &value)) {
      if (!ReadNumber(value, 0.0, std::nextafter(1.0, 0.0), &flags->et)) {
        wants = "a number in [0, 1)";
      }
    } else if (ParseFlag(arg, "hours", &value)) {
      if (!ReadNumber(value, kAboveZero, kMaxHours, &flags->hours)) {
        wants = "a number of hours in (0, 1e9]";
      }
    } else if (ParseFlag(arg, "days", &value)) {
      if (!ReadNumber(value, kAboveZero, kMaxHours / 24.0, &flags->days)) {
        wants = "a number of days in (0, 1e9 / 24]";
      }
    } else if (ParseFlag(arg, "csv", &value)) {
      flags->csv = value;
    } else if (ParseFlag(arg, "log-level", &value)) {
      LogLevel level;
      if (ParseLogLevel(value, &level)) {
        log_level = level;
      } else {
        wants = "debug|info|warning|error|off";
      }
    } else {
      return harness::FlagError{arg, std::string(arg) + ": unknown flag"};
    }
    if (wants != nullptr) {
      const std::string flag(arg, std::strchr(arg, '='));
      return harness::FlagError{
          flag, flag + ": wants " + wants + ", got '" + value + "'"};
    }
  }
  if (flags->mode == "experiment" || flags->mode == "calibrate") {
    // The target must lie between the row's idle floor and full
    // utilization at this rO; the arrival-rate calibration CHECKs both.
    try {
      MakeExperimentConfig(*flags);
    } catch (const CheckFailure& e) {
      // Keep the CHECK's own message ("... below the idle floor ..."),
      // without its condition and source location.
      const std::string what = e.what();
      const size_t dash = what.find("— ");
      return harness::FlagError{
          "--target", "--target: unreachable (" +
                          (dash == std::string::npos
                               ? what
                               : what.substr(dash + std::strlen("— "))) +
                          ")"};
    }
  }
  // AMPERE_LOG_LEVEL first, --log-level on top — the harness precedence,
  // applied only once every flag parsed.
  ApplyLogLevelFromEnv();
  if (log_level.has_value()) {
    SetLogLevel(*log_level);
  }
  return std::nullopt;
}

int RunCalibrate(const Flags& flags) {
  ExperimentConfig config = MakeExperimentConfig(flags);
  config.enable_ampere = false;
  config.warmup = SimTime::Hours(1);
  ControlledExperiment experiment(config);
  std::vector<double> levels{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  auto samples = experiment.RunFuCalibration(levels, SimTime::Minutes(5),
                                             SimTime::Minutes(25),
                                             SimTime::Hours(flags.hours));
  FreezeEffectModel model = FreezeEffectModel::Fit(samples);
  std::printf("fitted f(u) = %.4f * u (R^2 %.3f over %zu samples)\n",
              model.kr(), model.fit_r_squared(), samples.size());
  std::printf("pass --kr=%.4f to experiment runs on this workload\n",
              model.kr());
  return 0;
}

// Exports `series` to the --csv path: exit status 0, or 1 with the flag
// and the path on stderr if the file cannot be written.
int WriteCsv(const TimeSeriesDb& db, std::span<const std::string> series,
             const std::string& path) {
  if (!ExportCsvFile(db, series, path)) {
    std::fprintf(stderr, "--csv: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int RunExperiment(const Flags& flags) {
  ControlledExperiment experiment(MakeExperimentConfig(flags));
  ExperimentResult result = experiment.Run();
  std::printf("rO=%.2f target=%.2f seed=%llu %0.fh\n", flags.ro,
              flags.target, static_cast<unsigned long long>(flags.seed),
              flags.hours);
  std::printf("%8s %8s %8s %8s %8s %10s\n", "group", "u_mean", "u_max",
              "P_mean", "P_max", "violations");
  std::printf("%8s %8.3f %8.3f %8.3f %8.3f %10d\n", "exp",
              result.experiment.u_mean, result.experiment.u_max,
              result.experiment.p_mean, result.experiment.p_max,
              result.experiment.violations);
  std::printf("%8s %8s %8s %8.3f %8.3f %10d\n", "ctl", "-", "-",
              result.control.p_mean, result.control.p_max,
              result.control.violations);
  std::printf("rT = %.3f   G_TPW = %.1f%%\n", result.throughput_ratio,
              100.0 * result.gain_tpw);
  if (!flags.csv.empty()) {
    std::vector<std::string> series{
        PowerMonitor::GroupSeries(ControlledExperiment::kExperimentGroup),
        PowerMonitor::GroupSeries(ControlledExperiment::kControlGroup)};
    return WriteCsv(experiment.db(), series, flags.csv);
  }
  return 0;
}

int RunFleet(const Flags& flags) {
  FleetConfig config;
  config.seed = flags.seed;
  config.topology.num_rows = flags.rows;
  config.topology.racks_per_row = 4;
  config.topology.servers_per_rack =
      std::max(1, flags.servers / std::max(1, flags.rows) / 4);
  config.products = {{0.72, 4.0, 0.2, 0.02},
                     {0.80, 10.0, 0.15, 0.02},
                     {0.76, 16.0, 0.25, 0.02},
                     {0.70, 22.0, 0.2, 0.02}};
  Fleet fleet(config);
  fleet.Run(SimTime::Hours(24.0 * flags.days));
  std::printf("%6s %12s %12s %12s\n", "row", "mean_util", "max_util",
              "unused_W");
  std::vector<std::string> series;
  for (int32_t r = 0; r < fleet.dc().num_rows(); ++r) {
    std::vector<double> watts;
    fleet.db()
        .SeriesStitched(PowerMonitor::RowSeries(RowId(r)))
        .ForEachPoint([&](const TimePoint& p) { watts.push_back(p.value); });
    Summary s = Summarize(watts);
    double budget = fleet.dc().row_budget_watts(RowId(r));
    std::printf("%6d %12.3f %12.3f %12.0f\n", r, s.mean / budget,
                s.max / budget, budget - s.mean);
    series.push_back(PowerMonitor::RowSeries(RowId(r)));
  }
  if (!flags.csv.empty()) {
    return WriteCsv(fleet.db(), series, flags.csv);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (const std::optional<harness::FlagError> error =
          Parse(argc, argv, &flags)) {
    std::fprintf(stderr, "%s\n", error->message.c_str());
    return 2;
  }
  if (flags.mode == "calibrate") {
    return RunCalibrate(flags);
  }
  if (flags.mode == "experiment") {
    return RunExperiment(flags);
  }
  if (flags.mode == "fleet") {
    return RunFleet(flags);
  }
  std::fprintf(stderr,
               "usage: ampere_cli --mode=calibrate|experiment|fleet "
               "[--seed=N] [--servers=N] [--rows=N] [--ro=X] [--target=X] "
               "[--kr=X] [--et=X] [--hours=X] [--days=X] [--csv=PATH]\n");
  return 2;
}
