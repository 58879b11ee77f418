#include "src/core/run_artifacts.h"

#include <cstdio>
#include <filesystem>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"

namespace ampere {

RunArtifacts::RunArtifacts(const ExperimentConfig& config,
                           std::string_view default_label)
    : config_(config),
      label_(config.obs.run_label.empty() ? std::string(default_label)
                                          : config.obs.run_label) {
  if (!config_.obs.enabled()) {
    return;
  }
  recorder_ =
      std::make_unique<obs::FlightRecorder>(config_.obs.recorder_capacity);
  recorder_->SetAnomalyPolicy(config_.obs.anomaly);
  if (!config_.obs.postmortem_dir.empty()) {
    recorder_->SetAnomalySink([this](const obs::TimelineEvent& trigger) {
      WritePostmortem(trigger);
    });
  }
}

uint64_t RunArtifacts::ExportTimeline(
    std::vector<std::string>& artifacts) const {
  if (recorder_ == nullptr) {
    return 0;
  }
  if (!config_.obs.trace_path.empty()) {
    if (obs::WriteChromeTraceFile(*recorder_, config_.obs.trace_path,
                                  label_)) {
      artifacts.push_back(config_.obs.trace_path);
    } else {
      AMPERE_LOG(kWarning) << "failed to write trace artifact "
                           << config_.obs.trace_path;
    }
  }
  artifacts.insert(artifacts.end(), postmortems_.begin(), postmortems_.end());
  return recorder_->total_appended();
}

void RunArtifacts::WritePostmortem(const obs::TimelineEvent& trigger) {
  // Snapshots the recorder window, the metrics registry and the journal
  // tail into postmortem_<label>_<N>.json.
  std::string safe_label = label_;
  for (char& c : safe_label) {
    if (c == '/' || c == '\\' || c == ' ') c = '-';
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.obs.postmortem_dir, ec);
  const std::string path = config_.obs.postmortem_dir + "/postmortem_" +
                           safe_label + "_" +
                           std::to_string(recorder_->anomalies_fired()) +
                           ".json";
  const std::string json = BuildPostmortemJson(
      trigger, *recorder_, obs::CurrentMetrics()->Snapshot(), journal_,
      config_.obs.postmortem, label_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    AMPERE_LOG(kWarning) << "failed to open postmortem artifact " << path;
    return;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (ok) {
    postmortems_.push_back(path);
    AMPERE_LOG(kInfo) << "postmortem ("
                      << obs::TimelineEventTypeName(trigger.type) << " @ "
                      << trigger.time.minutes() << " min) -> " << path;
  }
}

}  // namespace ampere
