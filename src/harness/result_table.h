// Structured per-run results for the scenario runner.
//
// Every scenario run produces one ResultRow: named metric values (ordered
// as the scenario reported them), free-text notes (the per-run detail a
// bench would previously have printf'd mid-run), the captured log, the
// seed, and wall-clock timing. Rows are assembled in *submission order*
// regardless of which worker finished first, so a table produced with
// jobs=8 is byte-identical (timing aside) to the jobs=1 table.
//
// Emission formats:
//   * ToText — aligned human-readable table (what benches print).
//   * ToCsv  — deterministic data only (index, scenario, seed, metrics);
//              no timing columns, so CSV output is bit-stable across runs
//              and job counts. Suitable for plotting and for golden files.
//   * ToJson — the full record including per-run wall_ms, total wall time,
//              job count, notes, and captured logs.

#ifndef SRC_HARNESS_RESULT_TABLE_H_
#define SRC_HARNESS_RESULT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ampere {
namespace harness {

struct MetricValue {
  std::string name;
  double value = 0.0;
};

struct ResultRow {
  size_t index = 0;        // Submission order.
  std::string scenario;    // Human-readable run name.
  uint64_t seed = 0;
  bool ok = true;          // False if the scenario body threw.
  std::string error;       // Exception text when !ok.
  double wall_ms = 0.0;    // Wall-clock of this run on its worker.
  std::vector<MetricValue> metrics;
  std::string notes;       // Per-run detail text (kept out of stdout).
  std::string log;         // Captured AMPERE_LOG output of the run.
  // Pre-rendered JSON object with the run's observability data (metrics
  // snapshot, span profile, journal summary) captured by the runner's
  // per-run ScopedMetricsRegistry. Emitted verbatim as the "obs" field of
  // ToJson when non-empty. Spans carry wall-clock values, so this field —
  // like `log` and `wall_ms` — is excluded from CSV and SameData: the
  // determinism contract covers metrics/notes only.
  std::string obs_json;
  // Paths of artifacts the run wrote to disk (trace files, postmortem
  // dumps), reported via RunContext::Artifact. Emitted as the "artifacts"
  // JSON array when non-empty; excluded from CSV and SameData (paths embed
  // run-scoped names, not metric content).
  std::vector<std::string> artifacts;

  // Value of a named metric; CHECK-fails when absent.
  double Metric(std::string_view name) const;
  // Pointer to the value, or nullptr when absent.
  const double* FindMetric(std::string_view name) const;
};

class ResultTable {
 public:
  ResultTable() = default;

  void Resize(size_t n) { rows_.resize(n); }
  size_t size() const { return rows_.size(); }
  ResultRow& row(size_t i) { return rows_.at(i); }
  const ResultRow& row(size_t i) const { return rows_.at(i); }
  const std::vector<ResultRow>& rows() const { return rows_; }

  void set_jobs(int jobs) { jobs_ = jobs; }
  int jobs() const { return jobs_; }
  void set_total_wall_ms(double ms) { total_wall_ms_ = ms; }
  double total_wall_ms() const { return total_wall_ms_; }

  // Union of metric names across rows, in first-appearance order.
  std::vector<std::string> MetricNames() const;

  std::string ToText() const;
  std::string ToCsv() const;
  std::string ToJson() const;

  // Deterministic-content equality: index, scenario, seed, ok, error,
  // metrics (names, order, and bit-exact values), and notes. Ignores
  // wall-clock fields, job count, and captured logs — exactly the fields a
  // jobs=1 vs jobs=N comparison must disregard.
  static bool SameData(const ResultTable& a, const ResultTable& b);

 private:
  std::vector<ResultRow> rows_;
  int jobs_ = 1;
  double total_wall_ms_ = 0.0;
};

// Writes `contents` to `path` (CHECK-fails on I/O error). Used by benches
// for --csv / --json output.
void WriteFile(const std::string& path, const std::string& contents);

}  // namespace harness
}  // namespace ampere

#endif  // SRC_HARNESS_RESULT_TABLE_H_
