// Low-overhead metrics registry for the observability layer.
//
// The production Ampere daemon exports continuous telemetry about the
// controller itself — tick latency, prediction error, actuation counts —
// alongside the power telemetry it consumes. This registry is the in-process
// half of that: named counters and gauges, plus wall-clock trace spans
// (src/obs/span.h) aggregated per name.
//
// Single-writer contract: a registry belongs to the thread that constructed
// it. Only that thread writes it, installs it (ScopedMetricsRegistry) and
// snapshots it; the last two AMPERE_CHECK the owner, writes are unchecked.
// Writes are plain map updates with no lock, and Snapshot() copies the
// three name maps and sorts each by name.
//
// Scoping: instrumented code writes to the *current* registry —
// a thread-local override installed by ScopedMetricsRegistry, falling back
// to the calling thread's own Default() registry. The scenario runner
// installs one private registry per run (like ScopedLogCapture), so every
// harness run writes, and a postmortem snapshots, only its own metrics,
// whatever the job count; `--obs` only decides whether the run's snapshot
// is emitted.
//
// Every write names its domain: the free functions below take the DomainId
// the emitting component holds (SetObsDomain) as their first argument.
// Writes run at minute cadence (a controller tick, a monitor sample, one
// RPC, one event-loop drain); no per-job path writes the registry — the
// scheduler keeps its job counts as members and publishes them once at the
// end of a run (Scheduler::PublishJobCounters).
//
// Determinism contract: the registry only *observes*. It never touches RNG
// streams or simulation state, so instrumented runs produce bit-identical
// simulation results to uninstrumented ones.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ampere {
namespace obs {

// --- Metric-name domains -------------------------------------------------
//
// A domain is an interned metric-name prefix ("dc0/") that a write applies
// to its name. It mirrors the TimeSeriesDb "campus/dcK/" series convention:
// a campus gives each data center's components one domain, so four
// controllers' "controller.ticks" land as dc0/controller.ticks ..
// dc3/controller.ticks instead of merging into one indistinguishable
// counter. The registry itself stays domain-unaware — its direct methods
// never prefix — and the root domain (0) writes bare names.
//
// Prefixes are interned process-wide into immortal storage: a DomainId is a
// cheap POD handle and comparisons are integer compares.

using DomainId = uint32_t;  // 0 = root: no prefix.

// Interns `prefix` (e.g. "dc0/") and returns its handle; repeated calls
// with the same string return the same id. The empty prefix is id 0.
// Thread-safe; interned strings are never freed.
DomainId InternDomain(std::string_view prefix);

// The prefix string for a handle ("" for the root). The returned view
// points into immortal interned storage.
std::string_view DomainPrefix(DomainId id);

// --- Snapshot types ------------------------------------------------------

struct CounterValue {
  std::string name;
  uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
};

// Number of log2 duration buckets a span keeps: bucket i holds samples in
// [2^i, 2^{i+1}) nanoseconds, so 40 buckets span 1 ns .. ~18 minutes.
inline constexpr size_t kSpanBuckets = 40;

struct SpanStats {
  std::string name;
  uint64_t count = 0;
  double total_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  std::vector<uint64_t> buckets;  // kSpanBuckets log2 buckets.

  double mean_ns() const {
    return count > 0 ? total_ns / static_cast<double>(count) : 0.0;
  }
  // Interpolated from the log2 buckets, clamped to [min_ns, max_ns].
  double Quantile(double q) const;
  double p50_ns() const { return Quantile(0.50); }
  double p99_ns() const { return Quantile(0.99); }
};

// A name-sorted copy of one registry.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<SpanStats> spans;

  bool empty() const {
    return counters.empty() && gauges.empty() && spans.empty();
  }

  const uint64_t* FindCounter(std::string_view name) const;
  const double* FindGauge(std::string_view name) const;
  const SpanStats* FindSpan(std::string_view name) const;

  // Prometheus text exposition. Metric names have '.' rewritten to '_' and
  // get an "ampere_" prefix; spans emit summary-style quantiles in seconds.
  std::string ToPrometheusText() const;
  // Compact JSON object: {"counters":{...},"gauges":{...},"spans":{...}}.
  // Deterministic field order.
  std::string ToJson() const;
};

// --- Registry ------------------------------------------------------------

class MetricsRegistry {
 public:
  // The constructing thread becomes the registry's owner.
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void CounterAdd(std::string_view name, uint64_t delta = 1);
  void GaugeSet(std::string_view name, double value);
  void SpanRecord(std::string_view name, double duration_ns);

  // Copies every metric into one name-sorted snapshot. Owner thread only.
  MetricsSnapshot Snapshot() const;

  // The calling thread's own registry, which instrumentation writes to when
  // no scoped registry is installed on that thread.
  static MetricsRegistry& Default();

 private:
  friend class ScopedMetricsRegistry;

  // AMPERE_CHECKs that the calling thread owns this registry.
  void CheckOwner() const;

  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Transparent hash and equality: lookups by string_view build no string.
  template <typename T>
  using NameMap =
      std::unordered_map<std::string, T, NameHash, std::equal_to<>>;

  struct SpanCell {
    uint64_t count = 0;
    double total_ns = 0.0;
    double min_ns = 0.0;
    double max_ns = 0.0;
    std::array<uint64_t, kSpanBuckets> buckets{};
  };

  const std::thread::id owner_;
  NameMap<uint64_t> counters_;
  NameMap<double> gauges_;
  NameMap<SpanCell> spans_;
};

// --- Current-registry scoping -------------------------------------------

// The registry instrumentation on this thread currently writes to:
// the innermost live ScopedMetricsRegistry, else this thread's Default().
MetricsRegistry* CurrentMetrics();

// Redirects the calling thread's instrumentation into `registry` for the
// scope's lifetime. Scopes nest; the previous target is restored on exit.
// Strictly thread-local, exactly like ScopedLogCapture; `registry` must be
// owned by the calling thread (AMPERE_CHECKed).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();

  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

// Instrumentation entry points: write to CurrentMetrics() under `domain`'s
// prefix ("dc0/" + name; the bare name for the root). Prefixing goes
// through a thread-local scratch buffer, so it is allocation-free once warm.
void CounterAdd(DomainId domain, std::string_view name, uint64_t delta = 1);
void GaugeSet(DomainId domain, std::string_view name, double value);
void SpanRecord(DomainId domain, std::string_view name, double duration_ns);

}  // namespace obs
}  // namespace ampere

#endif  // SRC_OBS_METRICS_H_
