// The traced run: the closed loop rebuilt from public components and timed
// from outside.
//
// TracedLoop wires Simulation, DataCenter (or Campus), Scheduler,
// PowerMonitor, BatchWorkload and AmpereController with the same RNG forks,
// series prefixes and event order as ControlledExperiment (one DC) or
// CampusExperiment (several), so it simulates the same events and produces
// the same results; Fingerprint is what the benchmark compares to prove it.
// Three taps time the calls into each layer:
//   * a JobSink in front of Scheduler::Submit;
//   * the loop's own periodic events, which call PowerMonitor::SampleOnce
//     and AmpereController::Tick (and the metrics recorder, spillover and
//     re-plan passes) inside a timed region;
//   * Scheduler's completion listener, which only marks the step.
// The loop itself is driven one Simulation::Step() at a time with one clock
// read per step boundary. A step is charged by what fired inside it: a
// completion step wholly to the cluster layer, an untapped step (the
// workload's minute batch) wholly to the workload layer, and any other step
// to its timed call, with the rest of the step (pop, dispatch, re-arm)
// going to the event core's self time.

#ifndef PERFBENCH_TRACED_LOOP_H_
#define PERFBENCH_TRACED_LOOP_H_

#include <cstdint>

#include "perfbench/workloads.h"
#include "src/core/metrics.h"
#include "src/obs/journal.h"

namespace perfbench {

// What a run simulated; the traced and untraced runs must agree exactly.
struct Fingerprint {
  uint64_t events = 0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  int64_t violation_minutes = 0;  // Experiment groups, summed over DCs.
  double gain_tpw = 0.0;
};

enum Layer : int {
  kSimSelf = 0,    // Event core: step time outside any timed call.
  kWorkload,       // Minute-batch steps (BatchWorkload::GenerateMinute).
  kSubmit,         // Scheduler::Submit, including the placement.
  kCompletion,     // Whole completion steps: pop, CompleteTask, drain.
  kSample,         // PowerMonitor::SampleOnce.
  kTick,           // AmpereController::Tick.
  kMetrics,        // Per-minute group recorder and run bookkeeping events.
  kCampus,         // Spillover and budget re-plan passes.
  kNumLayers,
};

struct LayerTotals {
  uint64_t calls = 0;
  double ns = 0.0;
};

struct TraceReport {
  Fingerprint fingerprint;
  bool breaker_tripped = false;
  bool journal_matches = true;
  LayerTotals layers[kNumLayers];
  uint64_t self_timed_steps = 0;  // Steps whose self time is kSimSelf's.
  uint64_t pending_peak = 0;
  uint64_t queue_peak = 0;        // Largest single-DC pending queue.
  uint64_t placed_on_submit = 0;  // Placed inside the workload's Submit.
  // Placed anywhere else: queue drains and spillover re-submissions.
  uint64_t drain_placements = 0;
  uint64_t freeze_ops = 0;        // Summed over the DecisionJournals.
  uint64_t replans = 0;
  uint64_t spillover_jobs = 0;
  uint64_t series = 0;            // TimeSeriesDb series.
  double sim_minutes = 0.0;       // Warmup included.
  double wall_s = 0.0;            // Scheduling, stepped loop and results.
  double cpu_s = 0.0;             // Thread CPU time over the same span.
};

// Builds the mirror of `workload` and runs it traced. Aborts (via
// AMPERE_CHECK) on a config section the mirror does not reproduce:
// faults, traces, storage, obs artifacts, budget schedules or jobs > 1.
TraceReport RunTraced(const Workload& workload);

// CPU time the calling thread has used, in seconds. With jobs = 1 a run's
// CPU time equals its wall time on an idle host, and excludes the time a
// shared host keeps the thread waiting for a CPU.
double ThreadCpuSeconds();

// fig10's JournalReproducesTable2 rule: the controller's DecisionJournal
// summary of the experiment domain equals the GroupReport's Table-2 row.
bool JournalMatchesReport(const ampere::obs::JournalSummary& journal,
                          const ampere::GroupReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_LOOP_H_
