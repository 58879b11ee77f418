// Scenario abstraction and the built-in scenario sets.
//
// A Scenario is one independent unit of evaluation work: a name, a seed,
// and a body that builds its own Simulation (and everything hanging off
// it), runs it, and reports named metrics through the RunContext. Bodies
// must be self-contained — no shared mutable state with other scenarios —
// which the core layer guarantees (ControlledExperiment / Fleet own their
// RNG streams, clocks, and stores; see src/core).
//
// BuiltinScenarioSets() is a fixed table of named scenario-set factories
// ("experiment-smoke", "fleet-smoke") so tools and tests can run curated
// grids by name; `examples/scenario_sweep` is the CLI front end.

#ifndef SRC_HARNESS_SCENARIO_H_
#define SRC_HARNESS_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/result_table.h"

namespace ampere {
namespace harness {

// Handed to the scenario body; collects the run's structured output.
// A RunContext instance is used by exactly one worker thread at a time, so
// its methods need no locking.
class RunContext {
 public:
  RunContext(size_t index, uint64_t seed) : index_(index), seed_(seed) {}

  size_t index() const { return index_; }
  uint64_t seed() const { return seed_; }

  // Appends a named metric row value (order preserved in the ResultRow).
  void Metric(std::string_view name, double value) {
    metrics_.push_back(MetricValue{std::string(name), value});
  }

  // Appends per-run detail text (printed after the table, never
  // interleaved with other runs).
  void Note(std::string_view text) { notes_ += text; }
  void NoteLine(std::string_view text) {
    notes_ += text;
    notes_ += '\n';
  }

  // Records the path of an artifact this run wrote to disk (a trace file, a
  // postmortem dump). Lands in ResultRow::artifacts and the JSON record's
  // "artifacts" array, so consumers can find per-run output files without
  // globbing.
  void Artifact(std::string_view path) {
    artifacts_.emplace_back(path);
  }

  std::vector<MetricValue>& metrics() { return metrics_; }
  std::string& notes() { return notes_; }
  std::vector<std::string>& artifacts() { return artifacts_; }

 private:
  size_t index_;
  uint64_t seed_;
  std::vector<MetricValue> metrics_;
  std::string notes_;
  std::vector<std::string> artifacts_;
};

struct Scenario {
  std::string name;
  uint64_t seed = 0;
  std::function<void(RunContext&)> body;
};

// A named factory of a scenario set.
struct ScenarioSet {
  std::string_view name;
  std::string_view description;
  std::vector<Scenario> (*make)();
};

// The built-in smoke-sized experiment and fleet grids, sorted by name.
std::span<const ScenarioSet> BuiltinScenarioSets();

}  // namespace harness
}  // namespace ampere

#endif  // SRC_HARNESS_SCENARIO_H_
