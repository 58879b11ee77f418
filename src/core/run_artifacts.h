// A run's observation artifacts, shared by both experiment drivers: the
// persistent cold store under the run's TimeSeriesDb, the flight recorder
// and its anomaly sink, the postmortems that sink writes, and the Chrome
// trace export. Everything here is observation-only — nothing reads it back
// into the simulation — so results are identical with any of it on or off.
//
// Artifact order on a result: the trace first, then the postmortems in
// trigger order (ExportTimeline); a driver's own files next; the cold-store
// manifest last (FlushColdStore).

#ifndef SRC_CORE_RUN_ARTIFACTS_H_
#define SRC_CORE_RUN_ARTIFACTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/journal.h"
#include "src/telemetry/cold_store.h"
#include "src/telemetry/timeseries_db.h"

namespace ampere {

struct ExperimentConfig;

class RunArtifacts {
 public:
  // Builds the flight recorder when config.obs asks for one, with a sink
  // writing postmortems into config.obs.postmortem_dir. `default_label`
  // names the run when config.obs.run_label is empty. `config` must outlive
  // this object.
  RunArtifacts(const ExperimentConfig& config, std::string_view default_label);
  RunArtifacts(const RunArtifacts&) = delete;
  RunArtifacts& operator=(const RunArtifacts&) = delete;

  // Creates the cold store when config.storage is enabled and attaches it
  // to `db` with the configured hot budget.
  void OpenColdStore(TimeSeriesDb* db);
  // The decision journal whose tail each postmortem carries (null = none).
  void SetPostmortemJournal(const obs::DecisionJournal* journal) {
    journal_ = journal;
  }

  // Null unless config.obs.enabled().
  obs::FlightRecorder* recorder() { return recorder_.get(); }
  // Null unless config.storage.enabled().
  ColdStore* cold_store() { return cold_store_.get(); }

  // Writes the trace (when config.obs.trace_path is set) and appends it,
  // then the postmortems written so far, to `artifacts`. Returns the number
  // of timeline events recorded (0 without a recorder).
  uint64_t ExportTimeline(std::vector<std::string>& artifacts) const;
  // Seals the cold store so it reopens through ColdStore::OpenExisting,
  // appends its manifest to `artifacts` and reports the spill totals. A
  // no-op without a store.
  void FlushColdStore(const TimeSeriesDb& db,
                      std::vector<std::string>& artifacts,
                      uint64_t& samples_spilled, uint64_t& segments);

 private:
  void WritePostmortem(const obs::TimelineEvent& trigger);

  const ExperimentConfig& config_;
  std::string label_;
  std::unique_ptr<ColdStore> cold_store_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  const obs::DecisionJournal* journal_ = nullptr;
  std::vector<std::string> postmortems_;  // In trigger order.
};

}  // namespace ampere

#endif  // SRC_CORE_RUN_ARTIFACTS_H_
