// Campus-federation experiment: N controlled experiments under one contract.
//
// A CampusExperiment runs the §4.1.2 controlled-experiment methodology in
// every data center of a Campus simultaneously — per DC one DcRuntime (the
// wiring ControlledExperiment builds once) and one workload generator, all
// bound to ONE shared Simulation and ONE shared TimeSeriesDb (per-DC series
// prefixes keep the namespaces disjoint) — and adds the two campus-level
// behaviors:
//
//   1. Hierarchical budget allocation. Every re-plan interval the
//      CampusBudgetAllocator reads each DC's observed experiment-group
//      power and re-divides the campus experiment cap across the per-DC
//      controllers (AllocateCampusBudgets in src/control), journaling one
//      DecisionRecord per DC per re-plan under domain "campus/dcK". The
//      per-DC controllers are unchanged in their inner loop; only the PM
//      they normalize against moves.
//   2. Cross-DC batch spillover (policy-flagged, default off). When a DC's
//      frozen capacity starves its queue, unpinned pending jobs migrate to
//      the sibling DC with the most observed headroom via
//      Scheduler::TakePending + Submit.
//
// Determinism contract: everything campus-level runs on the simulation
// thread at fixed event offsets (monitor :00, controllers +1 s, metrics
// +2 s, spillover +4 s, re-plan +5 s; ties broken by DC order via the event
// queue's FIFO seq) — so a campus run is a pure function of its config.

#ifndef SRC_CORE_CAMPUS_EXPERIMENT_H_
#define SRC_CORE_CAMPUS_EXPERIMENT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/campus.h"
#include "src/common/rng.h"
#include "src/control/campus_allocator.h"
#include "src/core/dc_runtime.h"
#include "src/core/experiment.h"
#include "src/core/run_artifacts.h"
#include "src/obs/journal.h"

namespace ampere {

// The campus-level control daemon: owns the re-plan math's inputs/outputs
// and the decision audit log. Pure apart from the journal — Replan returns
// AllocateCampusBudgets on its observations and records one DecisionRecord
// per DC (domain "campus/dcK": observed vs the new budget, u = the DC's
// share fraction of the campus cap).
class CampusBudgetAllocator {
 public:
  CampusBudgetAllocator(double campus_total_watts,
                        const CampusAllocatorConfig& config);

  // `total_scale` applies a time-varying campus cap P(t): the allocator
  // divides campus_total_watts * total_scale instead of the static cap.
  std::vector<double> Replan(SimTime now,
                             std::span<const CampusDcObservation> dcs,
                             double total_scale = 1.0);

  double campus_total_watts() const { return campus_total_watts_; }
  uint64_t replans() const { return replans_; }
  const obs::DecisionJournal& journal() const { return journal_; }

 private:
  double campus_total_watts_;
  CampusAllocatorConfig config_;
  obs::DecisionJournal journal_;
  std::vector<std::string> domain_names_;  // "campus/dcK", grown on demand.
  uint64_t replans_ = 0;
};

// Per-DC slice of a campus run: the usual two-group report plus the
// federation bookkeeping.
struct CampusDcResult {
  GroupReport experiment;
  GroupReport control;
  double throughput_ratio = 0.0;
  double gain_tpw = 0.0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  size_t final_queue_length = 0;
  uint64_t jobs_spilled_out = 0;  // Taken from this DC's queue.
  uint64_t jobs_spilled_in = 0;   // Re-submitted into this DC.
  double final_budget_watts = 0.0;  // Experiment budget after the last plan.
  bool breaker_tripped = false;
  obs::JournalSummary journal;  // This DC's controller journal.
};

struct CampusResult {
  std::vector<CampusDcResult> dcs;
  // Campus-level rT/G_TPW over the summed group throughputs.
  double throughput_ratio = 0.0;
  double gain_tpw = 0.0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t spillover_jobs = 0;  // Total cross-DC migrations.
  uint64_t replans = 0;
  bool breaker_tripped = false;
  obs::JournalSummary allocator_journal;
  // Observability artifacts written during the run (trace first, then
  // postmortems in trigger order) and the flight-recorder event total.
  // Empty/zero unless config.obs enabled recording.
  std::vector<std::string> artifacts;
  uint64_t timeline_events = 0;
};

// Pure entry point mirroring RunExperimentToResult: builds a fresh
// CampusExperiment from `config` (config.campus must be enabled) and runs
// the closed loop. Deterministic function of the config; safe to call
// concurrently with distinct configs.
CampusResult RunCampusToResult(const ExperimentConfig& config);

class CampusExperiment {
 public:
  explicit CampusExperiment(const ExperimentConfig& config);

  CampusResult Run();

  // Canonical per-DC series prefix: "campus/dcK/".
  static std::string DcPrefix(DataCenterId id);

  // --- Component access for benches and tests ---
  Simulation& sim() { return sim_; }
  Campus& campus() { return campus_; }
  TimeSeriesDb& db() { return db_; }
  CampusBudgetAllocator& allocator() { return *allocator_; }
  Scheduler& scheduler(DataCenterId id) { return runtime(id).scheduler(); }
  PowerMonitor& monitor(DataCenterId id) { return runtime(id).monitor(); }
  AmpereController& controller(DataCenterId id) {
    return *runtime(id).controller();
  }
  const ExperimentConfig& config() const { return config_; }
  // Null unless config.obs requested recording.
  obs::FlightRecorder* flight_recorder() { return artifacts_.recorder(); }

 private:
  // One DC of the campus: its runtime (streams 100+k / 300+k, series under
  // DcPrefix, obs domain "dcK/"), its workload (stream 200+k) and the jobs
  // spillover moved into it.
  struct DcSlot {
    std::unique_ptr<DcRuntime> runtime;
    std::unique_ptr<BatchWorkload> workload;
    uint64_t jobs_spilled_in = 0;
  };

  static CampusConfig MakeCampusConfig(const ExperimentConfig& config);
  DcRuntime& runtime(DataCenterId id) { return *dcs_[id.index()].runtime; }
  void BuildDc(DataCenterId id);
  void SpilloverPass(SimTime now);
  void ReplanBudgets(SimTime now);

  ExperimentConfig config_;
  Rng rng_;
  Simulation sim_;
  Campus campus_;
  // Recorder and postmortems (tailing the allocator's journal).
  RunArtifacts artifacts_;
  TimeSeriesDb db_;
  JobIdAllocator ids_;  // Shared: JobIds are campus-unique.
  std::vector<DcSlot> dcs_;
  std::unique_ptr<CampusBudgetAllocator> allocator_;
  uint64_t spillover_jobs_ = 0;
  // Budget-schedule state: the scale in force now and the scale the last
  // re-plan used. A minute-tick mismatch triggers an extra mid-window
  // re-plan so curtailment propagates within one minute.
  double campus_budget_scale_ = 1.0;
  double last_planned_scale_ = 1.0;
};

}  // namespace ampere

#endif  // SRC_CORE_CAMPUS_EXPERIMENT_H_
