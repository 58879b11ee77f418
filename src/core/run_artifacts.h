// A run's observation artifacts, shared by both experiment drivers: the
// flight recorder and its anomaly sink, the postmortems that sink writes,
// and the Chrome trace export. Everything here is observation-only —
// nothing reads it back into the simulation — so results are identical
// with any of it on or off.
//
// Artifact order on a result: the trace first, then the postmortems in
// trigger order (ExportTimeline); a driver's own files next.

#ifndef SRC_CORE_RUN_ARTIFACTS_H_
#define SRC_CORE_RUN_ARTIFACTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/journal.h"

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

  // The decision journal whose tail each postmortem carries (null = none).
  void SetPostmortemJournal(const obs::DecisionJournal* journal) {
    journal_ = journal;
  }

  // Null unless config.obs.enabled().
  obs::FlightRecorder* recorder() { return recorder_.get(); }

  // Writes the trace (when config.obs.trace_path is set) and appends it,
  // then the postmortems written so far, to `artifacts`. Returns the number
  // of timeline events recorded (0 without a recorder).
  uint64_t ExportTimeline(std::vector<std::string>& artifacts) const;

 private:
  void WritePostmortem(const obs::TimelineEvent& trigger);

  const ExperimentConfig& config_;
  std::string label_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  const obs::DecisionJournal* journal_ = nullptr;
  std::vector<std::string> postmortems_;  // In trigger order.
};

}  // namespace ampere

#endif  // SRC_CORE_RUN_ARTIFACTS_H_
