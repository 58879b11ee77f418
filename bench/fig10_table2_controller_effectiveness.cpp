// Figure 10 + Table 2: controller effectiveness under light and heavy
// workload at over-provisioning ratio rO = 0.25 over 24 hours.
//
// Paper's shape (Table 2): under heavy workload the uncontrolled group sees
// hundreds of budget violations (321) while Ampere's group sees ~1 (caused
// by the 50 % freezing-ratio cap); under light workload the controller acts
// only occasionally (u_mean 1.5 %) and nobody violates. The experiment
// group's max power stays at/below the budget while the control group
// overshoots.
//
// The light and heavy arms are independent day-long simulations and run in
// parallel through the scenario harness; each arm's 24-hour trace is
// captured into its result row's notes instead of interleaved stdout.

#include <vector>

#include "bench/bench_common.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160410;

struct ArmSpec {
  const char* name;
  double target_power;
  double ar_sigma;
};

ExperimentResult RunScenario(const ArmSpec& arm,
                             const FreezeEffectModel& effect,
                             const harness::HarnessArgs& args,
                             size_t total_runs,
                             harness::RunContext& context) {
  ExperimentConfig config = bench::PaperExperimentConfig(
      kSeed + (arm.target_power > 0.95 ? 1 : 2), arm.target_power, 0.25);
  config.controller.effect = effect;
  config.controller.et = EtEstimator::Constant(0.02);
  // The paper's light trace wanders widely and spikes toward the budget
  // now and then (Fig. 10a: mean .857, max .997), while the heavy trace
  // hovers tightly against the budget (Fig. 10b: .95-1.0).
  config.workload.arrivals.ar_sigma = arm.ar_sigma;
  config.workload.arrivals.burst_prob = 0.012;
  config.workload.arrivals.burst_factor = 2.2;
  // --replay / --record / --budget-schedule: optional trace arm and P(t).
  bench::ApplyTraceArgs(config, args, context.index(), total_runs);
  ExperimentResult result = RunExperimentToResult(config);
  if (result.trace_jobs_recorded > 0 || result.trace_jobs_replayed > 0) {
    bench::NoteF(context, "%s: trace recorded=%llu replayed=%llu\n", arm.name,
                 static_cast<unsigned long long>(result.trace_jobs_recorded),
                 static_cast<unsigned long long>(result.trace_jobs_replayed));
  }
  bench::ReportArtifacts(context, result.artifacts);

  bench::NoteF(context, "%s: 24-hour trace (one row per 30 min)\n",
               arm.name);
  bench::NoteF(context, "%8s %12s %12s %10s\n", "hour", "exp_power",
               "ctl_power", "freeze_u");
  for (size_t i = 0; i < result.experiment.minutes.size(); i += 30) {
    const MinutePoint& e = result.experiment.minutes[i];
    const MinutePoint& c = result.control.minutes[i];
    bench::NoteF(context, "%8.1f %12.3f %12.3f %10.3f\n",
                 e.time.hours() - 2.0, e.normalized_power,
                 c.normalized_power, e.freeze_ratio);
  }

  context.Metric("u_mean", result.experiment.u_mean);
  context.Metric("u_max", result.experiment.u_max);
  context.Metric("P_mean", result.experiment.p_mean);
  context.Metric("P_max", result.experiment.p_max);
  context.Metric("violations", result.experiment.violations);
  context.Metric("ctl_P_max", result.control.p_max);
  context.Metric("ctl_violations", result.control.violations);
  return result;
}

// The controller's DecisionJournal is an independent audit path: it sees the
// same per-minute watts the metrics recorder sees (monitor sample at :00,
// controller tick at +1 s, recorder at +2 s), so its "experiment"-domain
// summary must reproduce the GroupReport's Table-2 counts bit-for-bit.
bool JournalReproducesTable2(const ExperimentResult& result) {
  const obs::JournalDomainSummary* d = result.journal.FindDomain("experiment");
  if (d == nullptr) {
    return false;
  }
  const GroupReport& report = result.experiment;
  return d->ticks == report.minutes.size() &&
         d->violations == static_cast<uint64_t>(report.violations) &&
         d->u_mean == report.u_mean && d->u_max == report.u_max &&
         d->p_mean == report.p_mean && d->p_max == report.p_max;
}

void PrintTable2Row(const char* workload, const char* group, double u_mean,
                    double u_max, double p_mean, double p_max,
                    int violations) {
  std::printf("%8s %6s %8.3f %8.3f %8.3f %8.3f %8d\n", workload, group,
              u_mean, u_max, p_mean, p_max, violations);
}

int Main(const harness::HarnessArgs& args) {
  bench::Header("Figure 10 + Table 2",
                "controller effectiveness, light vs heavy workload, rO=0.25",
                kSeed);

  // Calibrate kr once with the Fig. 5 procedure, as production would.
  FreezeEffectModel effect = bench::CalibrateEffectModel(
      kSeed, /*target_power=*/0.97, /*ro=*/0.25, /*verbose=*/true);

  const std::vector<ArmSpec> arms = {
      {"light", 0.91, 0.035},
      {"heavy", 1.00, 0.015},
  };
  auto grid = harness::RunGrid(
      arms,
      [](const ArmSpec& arm, size_t) {
        return harness::GridMeta{
            arm.name, kSeed + (arm.target_power > 0.95 ? 1 : 2)};
      },
      [&effect, &args, total = arms.size()](const ArmSpec& arm,
                                            harness::RunContext& context) {
        return RunScenario(arm, effect, args, total, context);
      },
      args.runner);
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }
  const ExperimentResult& light = grid.values[0];
  const ExperimentResult& heavy = grid.values[1];

  bench::Section("Table 2: controller effectiveness (per-minute samples)");
  std::printf("%8s %6s %8s %8s %8s %8s %8s\n", "workload", "group", "u_mean",
              "u_max", "P_mean", "P_max", "violate");
  PrintTable2Row("light", "exp", light.experiment.u_mean,
                 light.experiment.u_max, light.experiment.p_mean,
                 light.experiment.p_max, light.experiment.violations);
  PrintTable2Row("light", "ctl", 0.0, 0.0, light.control.p_mean,
                 light.control.p_max, light.control.violations);
  PrintTable2Row("heavy", "exp", heavy.experiment.u_mean,
                 heavy.experiment.u_max, heavy.experiment.p_mean,
                 heavy.experiment.p_max, heavy.experiment.violations);
  PrintTable2Row("heavy", "ctl", 0.0, 0.0, heavy.control.p_mean,
                 heavy.control.p_max, heavy.control.violations);
  std::printf("(paper heavy: exp u_mean .247 u_max .50 P_mean .948 P_max "
              "1.002, 1 violation; ctl P_max 1.025, 321 violations)\n");

  bench::Section("shape checks vs. paper");
  bench::ShapeCheck(heavy.control.violations > 50,
                    "heavy uncontrolled group violates routinely");
  bench::ShapeCheck(heavy.experiment.violations <
                        heavy.control.violations / 10,
                    "Ampere eliminates almost all heavy-load violations");
  bench::ShapeCheck(light.experiment.violations == 0 &&
                        light.control.violations <= 2,
                    "light workload needs (almost) no control");
  bench::ShapeCheck(light.experiment.u_mean < 0.08,
                    "light-load freezing is occasional");
  bench::ShapeCheck(heavy.experiment.u_mean > 0.05,
                    "heavy-load freezing is sustained");
  bench::ShapeCheck(heavy.experiment.u_max >= 0.49,
                    "the 50% freeze cap saturates under heavy load");
  bench::ShapeCheck(heavy.experiment.p_max < heavy.control.p_max,
                    "control reduces the peak power draw");

  bench::Section("DecisionJournal audit cross-check");
  for (const ExperimentResult* result : {&light, &heavy}) {
    const char* arm = result == &light ? "light" : "heavy";
    const obs::JournalDomainSummary* d =
        result->journal.FindDomain("experiment");
    if (d != nullptr) {
      std::printf("%8s journal: ticks=%llu violate=%llu capped=%llu "
                  "u_mean=%.3f u_max=%.3f P_mean=%.3f P_max=%.3f\n",
                  arm, static_cast<unsigned long long>(d->ticks),
                  static_cast<unsigned long long>(d->violations),
                  static_cast<unsigned long long>(d->capped_ticks), d->u_mean,
                  d->u_max, d->p_mean, d->p_max);
    }
    char claim[128];
    std::snprintf(claim, sizeof(claim),
                  "%s journal summary reproduces Table 2 bit-for-bit", arm);
    bench::ShapeCheck(JournalReproducesTable2(*result), claim);
  }
  return 0;
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
