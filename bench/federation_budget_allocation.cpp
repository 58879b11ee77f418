// Federation: hierarchical budget allocation across a campus of DCs.
//
// The paper controls one row/DC against one power cap. This bench promotes
// the experiment to a campus of four data centers under ONE campus-level
// experiment cap and compares two ways of dividing it:
//
//   static    — a fixed 4-way equal split (what N independent Ampere
//               deployments would do), and
//   headroom  — the CampusBudgetAllocator re-planning every 15 minutes from
//               each DC's observed experiment-group power (E_t-margined
//               demand-proportional water-fill, clamped at per-DC rated
//               contracts).
//
// The DCs run heterogeneous demand (0.99 / 0.95 / 0.90 / 0.85 normalized),
// so a static split starves the hottest DC — its controller freezes
// schedulers while siblings strand headroom. Expected shape: the headroom
// policy beats the static split on campus G_TPW with zero breaker trips in
// every arm. Both policies also run with cross-DC batch spillover enabled
// to show the two federation mechanisms compose.
//
// Flags (besides the usual harness ones):
//   --quick       4 h measured window on 48-server DCs (CI smoke tier).

#include <array>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/campus_experiment.h"

namespace ampere {
namespace {

constexpr uint64_t kSeed = 20160427;

struct Arm {
  const char* name;
  CampusAllocPolicy policy;
  bool spillover;
};

ExperimentConfig CampusConfigFor(bool quick) {
  ExperimentConfig config;
  config.seed = kSeed;
  if (quick) {
    config.topology.num_rows = 2;
    config.topology.racks_per_row = 3;
    config.topology.servers_per_rack = 8;  // 48 per DC, 192 total.
  } else {
    config.topology = bench::PaperRowTopology();  // 420 per DC, 1680 total.
  }
  config.controller.effect = FreezeEffectModel(0.05);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Minutes(30);
  config.duration = quick ? SimTime::Hours(4) : SimTime::Hours(24);
  config.campus.enabled = true;
  config.campus.num_datacenters = 4;
  // Heterogeneous operating points, all above the ~0.81 idle floor
  // (idle_fraction 0.65 at rO = 0.25). DC 0 is the one a static split hurts.
  config.campus.dc_target_power = {0.99, 0.95, 0.90, 0.85};
  config.campus.allocator.replan_interval = SimTime::Minutes(15);
  config.campus.spillover_queue_threshold = 4;
  config.campus.spillover_max_jobs_per_pass = 16;
  return config;
}

// --- Grid mode: static vs headroom, with and without spillover -----------

int RunGridMode(const harness::HarnessArgs& args, bool quick) {
  const std::array<Arm, 4> arms{{
      {"static", CampusAllocPolicy::kStatic, false},
      {"static+spill", CampusAllocPolicy::kStatic, true},
      {"headroom", CampusAllocPolicy::kHeadroom, false},
      {"headroom+spill", CampusAllocPolicy::kHeadroom, true},
  }};
  auto grid = harness::RunGrid(
      arms,
      [](const Arm& arm, size_t) {
        return harness::GridMeta{arm.name, kSeed};
      },
      [quick, &args, total = arms.size()](const Arm& arm,
                                          harness::RunContext& context) {
        ExperimentConfig config = CampusConfigFor(quick);
        config.campus.allocator.policy = arm.policy;
        config.campus.enable_spillover = arm.spillover;
        // --trace / --postmortem-dir: per-arm flight-recorder artifacts
        // (one track per DC in the trace). Observation-only.
        bench::ApplyObsArgs(config, args, arm.name, context.index(), total);
        // --budget-schedule: time-varying campus cap P(t). Workload trace
        // record/replay stays single-DC, so only the schedule applies here.
        bench::ApplyBudgetScheduleArg(config, args);
        CampusResult result = RunCampusToResult(config);
        bench::ReportArtifacts(context, result.artifacts);
        context.Metric("gain_tpw", result.gain_tpw);
        context.Metric("rT", result.throughput_ratio);
        context.Metric("replans", static_cast<double>(result.replans));
        context.Metric("spillover",
                       static_cast<double>(result.spillover_jobs));
        context.Metric("breaker", result.breaker_tripped ? 1.0 : 0.0);
        int violations = 0;
        for (const CampusDcResult& dc : result.dcs) {
          violations += dc.experiment.violations;
        }
        context.Metric("violations", violations);
        context.Metric("dc0_budget", result.dcs[0].final_budget_watts);
        context.Metric("dc3_budget", result.dcs[3].final_budget_watts);
        for (size_t d = 0; d < result.dcs.size(); ++d) {
          const CampusDcResult& dc = result.dcs[d];
          bench::NoteF(context,
                       "dc%zu: budget %.0f W, rT %.3f, G_TPW %+.3f, "
                       "out/in %llu/%llu, queue %zu\n",
                       d, dc.final_budget_watts, dc.throughput_ratio,
                       dc.gain_tpw,
                       static_cast<unsigned long long>(dc.jobs_spilled_out),
                       static_cast<unsigned long long>(dc.jobs_spilled_in),
                       dc.final_queue_length);
        }
        return result;
      },
      args.runner);

  bench::Section(quick ? "4 h campus runs (quick tier)"
                       : "24 h campus runs, 4 DCs, one experiment cap");
  if (!harness::EmitResults(grid.table, args)) {
    return 1;
  }

  const CampusResult& fixed = grid.values[0];
  const CampusResult& fixed_spill = grid.values[1];
  const CampusResult& dynamic = grid.values[2];
  const CampusResult& dynamic_spill = grid.values[3];

  bench::Section("shape checks (hierarchical allocation, Eq. 17-18 gains)");
  bench::ShapeCheck(dynamic.gain_tpw > fixed.gain_tpw,
                    "headroom re-planning beats the static 4-way split on "
                    "campus G_TPW");
  bench::ShapeCheck(dynamic_spill.gain_tpw > fixed_spill.gain_tpw,
                    "the ordering survives with spillover enabled");
  bool no_trips = true;
  for (const CampusResult& result : grid.values) {
    no_trips = no_trips && !result.breaker_tripped;
  }
  bench::ShapeCheck(no_trips, "zero breaker trips in every arm");
  const double equal_split =
      dynamic.dcs[0].final_budget_watts + dynamic.dcs[1].final_budget_watts +
      dynamic.dcs[2].final_budget_watts + dynamic.dcs[3].final_budget_watts;
  bench::ShapeCheck(
      dynamic.dcs[0].final_budget_watts > equal_split / 4.0 &&
          dynamic.dcs[3].final_budget_watts < equal_split / 4.0,
      "the hot DC ends above the equal split, funded by the coldest");
  return 0;
}

int Main(const harness::HarnessArgs& args) {
  bool quick = false;
  for (const std::string& arg : args.positional) {
    if (arg == "--quick") quick = true;
  }
  bench::Header("Federation: campus budget allocation",
                "static 4-way split vs hierarchical headroom re-planning",
                kSeed);
  return RunGridMode(args, quick);
}

}  // namespace
}  // namespace ampere

int main(int argc, char** argv) {
  return ampere::Main(ampere::harness::ParseHarnessArgs(argc, argv));
}
