// Trace workflow: capture a workload as an ampere.trace.v1 file, replay it
// under Ampere, and export the resulting power telemetry as CSV.
//
//   build/examples/trace_replay [trace.amptrace [power.csv]]
//
// Demonstrates the data-exchange surfaces: SampleTrace / WriteTraceFile /
// ReadTraceFile / TraceArrivalProcess for workloads (docs/traces.md), and
// ExportCsvFile for telemetry — the pieces a user needs to run Ampere
// experiments against their own recorded workloads and plot the results.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/controller.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/csv_export.h"
#include "src/telemetry/power_monitor.h"
#include "src/workload/trace_format.h"

using namespace ampere;  // NOLINT: example brevity.

int main(int argc, char** argv) {
  std::string trace_path = argc > 1 ? argv[1] : "/tmp/ampere_trace.amptrace";
  std::string power_path = argc > 2 ? argv[2] : "/tmp/ampere_power.csv";

  // 1. Materialize 6 hours of the calibrated synthetic workload as a trace
  //    (a user would instead record one from their own cluster).
  BatchWorkloadParams params;
  params.arrivals.base_rate_per_min = 40.0;
  params.arrivals.diurnal_amplitude = 0.0;
  const TraceData trace = SampleTrace(params, SimTime::Hours(6), Rng(11));
  if (!WriteTraceFile(trace_path, trace)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("wrote %zu job records to %s\n", trace.jobs.size(),
              trace_path.c_str());

  // A trace is external data: reading it never aborts, it reports.
  TraceParseResult read = ReadTraceFile(trace_path);
  if (!read.ok()) {
    std::fprintf(stderr, "cannot replay %s: %s\n", trace_path.c_str(),
                 read.message.c_str());
    return 1;
  }

  // 2. Replay the trace through a controlled row.
  Rng rng(12);
  Simulation sim;
  TopologyConfig topology;
  topology.num_rows = 2;
  topology.racks_per_row = 2;
  topology.servers_per_rack = 20;
  DataCenter dc(topology, &sim);
  Scheduler scheduler(&dc, SchedulerConfig{}, rng.Fork(1));
  JobIdAllocator ids;
  TraceArrivalProcess workload(
      std::make_shared<const TraceData>(std::move(read.trace)), &sim,
      &scheduler, &ids);
  TimeSeriesDb db;
  PowerMonitor monitor(&dc, &db, PowerMonitorConfig{}, rng.Fork(2));
  std::vector<ServerId> row0(dc.servers_in_row(RowId(0)).begin(),
                             dc.servers_in_row(RowId(0)).end());
  monitor.RegisterGroup("row0", row0);

  AmpereControllerConfig controller_config;
  controller_config.effect = FreezeEffectModel(0.013);
  controller_config.et = EtEstimator::Constant(0.02);
  AmpereController ampere(&scheduler, &monitor, controller_config);
  double budget = 40 * 250.0 / 1.17;  // rO = 0.17 on row 0.
  ampere.AddDomain({"row0", row0, budget});

  workload.Start(SimTime());
  monitor.Start(SimTime::Minutes(1));
  ampere.Start(&sim, SimTime::Minutes(1) + SimTime::Seconds(1));
  sim.RunUntil(SimTime::Hours(6.5));

  std::printf("replayed %llu/%zu jobs; %llu placed; freeze ops %llu\n",
              static_cast<unsigned long long>(workload.jobs_submitted()),
              workload.jobs_total(),
              static_cast<unsigned long long>(scheduler.jobs_placed()),
              static_cast<unsigned long long>(ampere.freeze_ops()));

  // 3. Export row/group power telemetry for plotting.
  std::vector<std::string> series{
      PowerMonitor::GroupSeries("row0"),
      PowerMonitor::RowSeries(RowId(1)),
      PowerMonitor::kTotalSeries,
  };
  if (!ExportCsvFile(db, series, power_path)) {
    std::fprintf(stderr, "cannot write %s\n", power_path.c_str());
    return 1;
  }
  std::printf("exported %zu telemetry series (%zu points) to %s\n",
              series.size(), db.TotalPoints(), power_path.c_str());
  return 0;
}
