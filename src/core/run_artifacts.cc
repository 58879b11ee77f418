#include "src/core/run_artifacts.h"

#include <algorithm>
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

void RunArtifacts::OpenColdStore(TimeSeriesDb* db) {
  if (!config_.storage.enabled()) {
    return;
  }
  // The db spills past the hot budget into mmap'd segments under
  // store_dir. Pure storage plumbing — the control loop reads the
  // monitors' caches, so results are identical with it off.
  ColdStoreConfig cold;
  cold.dir = config_.storage.store_dir;
  cold.segment_samples =
      config_.storage.segment_samples > 0
          ? config_.storage.segment_samples
          : std::max<size_t>(16384, config_.storage.hot_budget_samples);
  auto opened = ColdStore::Create(cold);
  AMPERE_CHECK(opened.status.ok())
      << "cannot create cold store: " << opened.status.message;
  cold_store_ = std::move(opened.store);
  db->AttachColdStore(cold_store_.get(), config_.storage.hot_budget_samples);
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

void RunArtifacts::FlushColdStore(const TimeSeriesDb& db,
                                  std::vector<std::string>& artifacts,
                                  uint64_t& samples_spilled,
                                  uint64_t& segments) {
  if (cold_store_ == nullptr) {
    return;
  }
  const StoreStatus flushed = cold_store_->Flush();
  AMPERE_CHECK(flushed.ok()) << "cold store flush failed: "
                             << flushed.message;
  samples_spilled = db.samples_spilled();
  segments = cold_store_->total_segments();
  artifacts.push_back(cold_store_->ManifestPath());
  AMPERE_LOG(kInfo) << "cold store: spilled " << samples_spilled
                    << " samples into " << segments << " segments under "
                    << cold_store_->dir();
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
