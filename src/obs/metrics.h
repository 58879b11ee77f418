// Low-overhead metrics registry for the observability layer.
//
// The production Ampere daemon exports continuous telemetry about the
// controller itself — tick latency, prediction error, actuation counts —
// alongside the power telemetry it consumes. This registry is the in-process
// half of that: named counters, gauges, and fixed-bucket histograms, plus
// wall-clock trace spans (src/obs/span.h) aggregated per name.
//
// Concurrency model: the registry is sharded per thread. Each writing
// thread owns a private shard (created lazily on first touch), so hot-path
// writes never contend with other threads; Snapshot() merges every shard
// under the shard mutexes (uncontended except during the snapshot itself).
// Merge rules: counters and histogram buckets sum; a gauge resolves to the
// most recent Set (a global sequence stamp breaks ties deterministically);
// span statistics combine count/total/min/max and log2 latency buckets.
//
// Scoping: instrumented code writes to the *current* registry —
// a thread-local override installed by ScopedMetricsRegistry, falling back
// to the process-wide Default() registry. The parallel scenario runner
// installs one private registry per run (like ScopedLogCapture), so every
// harness run gets an isolated snapshot regardless of the job count.
//
// Cost control: call sites use the AMPERE_COUNTER_ADD / AMPERE_GAUGE_SET /
// AMPERE_HISTOGRAM_OBSERVE macros below (and AMPERE_SPAN from span.h).
// Instrumentation is always on: a per-event counter site is a cached cell
// increment (CounterSite), and minute-cadence sites take the locked path.
//
// Determinism contract: the registry only *observes*. It never touches RNG
// streams or simulation state, so instrumented runs produce bit-identical
// simulation results to uninstrumented ones.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ampere {
namespace obs {

// --- Metric-name domains -------------------------------------------------
//
// A domain is an interned metric-name prefix ("dc0/") applied to every
// write that goes through the free functions / macros below while it is
// current on the calling thread. It mirrors the TimeSeriesDb "campus/dcK/"
// series convention: a campus run installs one domain per data center
// around each DC component's work, so four controllers' "controller.ticks"
// land as dc0/controller.ticks .. dc3/controller.ticks instead of merging
// into one indistinguishable counter. The registry itself stays
// domain-unaware — its direct methods never prefix — so single-DC runs
// (domain 0, the root) are byte-identical to the pre-domain behavior.
//
// Prefixes are interned process-wide into immortal storage: a DomainId is a
// cheap POD handle, comparisons are integer compares, and the hot-path cost
// of domain awareness is one thread-local load per instrumented write.

using DomainId = uint32_t;  // 0 = root: no prefix.

namespace internal {
// constinit: the variable is known to be statically initialized, so other
// translation units access it directly instead of through a TLS init
// wrapper (which UBSan builds saw as a null pointer).
extern constinit thread_local DomainId t_current_domain;
}  // namespace internal

// Interns `prefix` (e.g. "dc0/") and returns its handle; repeated calls
// with the same string return the same id. The empty prefix is id 0.
// Thread-safe; interned strings are never freed.
DomainId InternDomain(std::string_view prefix);

// The prefix string for a handle ("" for the root). The returned view
// points into immortal interned storage.
std::string_view DomainPrefix(DomainId id);

// The calling thread's current domain (root unless a ScopedMetricsDomain
// is live).
inline DomainId CurrentDomainId() { return internal::t_current_domain; }

// Installs `domain` as the calling thread's current domain for the scope's
// lifetime. Scopes nest; strictly thread-local, like ScopedMetricsRegistry.
class ScopedMetricsDomain {
 public:
  explicit ScopedMetricsDomain(DomainId domain)
      : previous_(internal::t_current_domain) {
    internal::t_current_domain = domain;
  }
  ~ScopedMetricsDomain() { internal::t_current_domain = previous_; }

  ScopedMetricsDomain(const ScopedMetricsDomain&) = delete;
  ScopedMetricsDomain& operator=(const ScopedMetricsDomain&) = delete;

 private:
  DomainId previous_;
};

// --- Snapshot types ------------------------------------------------------

struct CounterValue {
  std::string name;
  uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
  uint64_t sequence = 0;  // Global Set() order; latest wins on merge.
};

struct HistogramValue {
  std::string name;
  std::vector<double> bounds;    // Ascending upper bounds; +inf is implicit.
  std::vector<uint64_t> counts;  // bounds.size() + 1 buckets.
  uint64_t count = 0;
  double sum = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  // Linear interpolation inside the containing bucket; the open overflow
  // bucket reports its lower bound.
  double Quantile(double q) const;
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

// A merged, name-sorted view of a registry (or of several snapshots).
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<SpanStats> spans;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }

  const uint64_t* FindCounter(std::string_view name) const;
  const double* FindGauge(std::string_view name) const;
  const HistogramValue* FindHistogram(std::string_view name) const;
  const SpanStats* FindSpan(std::string_view name) const;

  // Folds `other` into this snapshot using the registry merge rules
  // (counters/buckets sum, gauges latest-sequence-wins).
  void MergeFrom(const MetricsSnapshot& other);

  // Prometheus text exposition. Metric names have '.' rewritten to '_' and
  // get an "ampere_" prefix; histograms emit _bucket{le=...}/_sum/_count,
  // spans emit summary-style quantiles in seconds.
  std::string ToPrometheusText() const;
  // Compact JSON object: {"counters":{...},"gauges":{...},
  // "histograms":{...},"spans":{...}}. Deterministic field order.
  std::string ToJson() const;
};

// --- Registry ------------------------------------------------------------

// Default histogram bucket upper bounds for ad-hoc observations (roughly
// 1-2.5-5 per decade over 1e-3 .. 1e3).
std::span<const double> DefaultHistogramBounds();

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void CounterAdd(std::string_view name, uint64_t delta = 1);
  void GaugeSet(std::string_view name, double value);

  // Process-unique registry id and Reset() epoch. Call-site caches
  // (CounterSite below) compare both to detect, in O(1), that a cached cell
  // pointer belongs to a different registry or predates a Reset().
  uint64_t id() const { return id_; }
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // Stable address of the calling thread's counter cell for `name` (the
  // shard maps are node-based, so the address survives rehashing). Valid
  // until the next Reset() — observable as an epoch() change — or until the
  // registry is destroyed.
  uint64_t* CounterCell(std::string_view name);
  // The first observation of a name fixes its bucket layout; later calls
  // must pass a bounds span of the same size (contents are trusted).
  void HistogramObserve(std::string_view name, double value,
                        std::span<const double> bounds);
  void HistogramObserve(std::string_view name, double value) {
    HistogramObserve(name, value, DefaultHistogramBounds());
  }
  void SpanRecord(std::string_view name, double duration_ns);

  // Merges every thread shard into one name-sorted snapshot.
  MetricsSnapshot Snapshot() const;

  // Clears all shards (names and values) and advances epoch(), invalidating
  // every cached CounterCell() pointer. Must not race with writers: callers
  // reset between runs, at points where no instrumented code is executing
  // against this registry (the harness already guarantees this).
  void Reset();

  // The process-wide registry instrumentation writes to when no scoped
  // registry is installed on the calling thread.
  static MetricsRegistry& Default();

  // Opaque per-thread shard; defined in metrics.cc. Public only so the
  // thread-local shard cache there can name it.
  struct Shard;

 private:
  Shard& LocalShard();

  const uint64_t id_;  // Process-unique; never reused.
  std::atomic<uint64_t> epoch_{0};  // Bumped by Reset().
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// --- Current-registry scoping -------------------------------------------

// The registry instrumentation on this thread currently writes to:
// the innermost live ScopedMetricsRegistry, else Default().
MetricsRegistry* CurrentMetrics();

// Redirects the calling thread's instrumentation into `registry` for the
// scope's lifetime. Scopes nest; the previous target is restored on exit.
// Strictly thread-local, exactly like ScopedLogCapture.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();

  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

// Convenience free functions routing to CurrentMetrics(), with the current
// domain's prefix applied to the name (via a thread-local scratch buffer,
// allocation-free once warm). Prefer the macros below at instrumentation
// sites (AMPERE_COUNTER_ADD caches its cell per call site).
void CounterAdd(std::string_view name, uint64_t delta = 1);
void GaugeSet(std::string_view name, double value);
void HistogramObserve(std::string_view name, double value);
void HistogramObserve(std::string_view name, double value,
                      std::span<const double> bounds);
void SpanRecord(std::string_view name, double duration_ns);

// --- Counter call-site cache ---------------------------------------------
//
// The generic CounterAdd pays a thread-local shard lookup, a mutex lock and
// a string hash probe on every call — fine at minute cadence, too heavy for
// per-event sites inside the simulation loop (job submitted, task placed).
// A CounterSite caches resolved cell pointers per (call site, thread), one
// binding per metrics domain in a small direct-mapped table indexed by the
// interned DomainId: a campus's DCs switch domain on nearly every event,
// and each DC keeps its own binding. The steady-state Add() is a table
// index, three compares and a relaxed increment. A miss (first use of a
// domain, two domains sharing a slot, a registry switch or a Reset())
// rebinds through the locked, hashing path.
//
// Correctness: shards are single-writer (the owning thread), so the
// unlocked increment cannot lose updates; Snapshot() on another thread
// reads the cell through std::atomic_ref, making the unlocked write/read
// pair race-free. A registry switch (ScopedMetricsRegistry), a Reset(), or
// a domain switch (ScopedMetricsDomain) is detected by comparing the
// binding's registry id, epoch, and domain, after which it rebinds — a
// binding caches the cell of its *domain-prefixed* name, so
// "controller.ticks" emitted under domain "dc0/" lands in
// dc0/controller.ticks.
//
// `name` must point at storage that outlives the site (string literals at
// the macro sites).
class CounterSite {
 public:
  constexpr explicit CounterSite(std::string_view name) : name_(name) {}

  void Add(uint64_t delta) {
    MetricsRegistry* registry = CurrentMetrics();
    const DomainId domain = internal::t_current_domain;
    Binding& binding = bindings_[domain % kBindings];
    if (registry->id() != binding.registry_id ||
        registry->epoch() != binding.epoch || domain != binding.domain)
        [[unlikely]] {
      Rebind(*registry, binding);
    }
    std::atomic_ref<uint64_t> cell(*binding.cell);
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  // Rebinds so far: locked lookups taken by Add(). Zero misses after warm-up
  // is the property the table exists for.
  uint64_t rebinds() const { return rebinds_; }

 private:
  // Enough for the root plus a campus of DCs without two sharing a slot.
  static constexpr size_t kBindings = 8;
  struct Binding {
    uint64_t* cell = nullptr;
    uint64_t registry_id = 0;  // 0 is never a live registry id.
    uint64_t epoch = 0;
    DomainId domain = 0;
  };

  void Rebind(MetricsRegistry& registry, Binding& binding);

  std::string_view name_;
  uint64_t rebinds_ = 0;
  Binding bindings_[kBindings];
};

}  // namespace obs
}  // namespace ampere

// --- Instrumentation macros ----------------------------------------------

// `name` must be a string literal (or otherwise have static storage
// duration): each expansion declares a thread-local CounterSite that keeps
// the name by reference for rebinding after registry switches.
#define AMPERE_COUNTER_ADD(name, delta)                \
  do {                                                 \
    static thread_local ::ampere::obs::CounterSite     \
        ampere_obs_counter_site{(name)};               \
    ampere_obs_counter_site.Add((delta));              \
  } while (0)

#define AMPERE_GAUGE_SET(name, value) \
  ::ampere::obs::GaugeSet((name), (value))

#define AMPERE_HISTOGRAM_OBSERVE(name, value) \
  ::ampere::obs::HistogramObserve((name), (value))

#define AMPERE_OBS_DOMAIN_CONCAT_INNER(a, b) a##b
#define AMPERE_OBS_DOMAIN_CONCAT(a, b) AMPERE_OBS_DOMAIN_CONCAT_INNER(a, b)
// Installs `domain_id` (an ::ampere::obs::DomainId) as the current metrics
// domain for the rest of the enclosing scope.
#define AMPERE_METRICS_DOMAIN(domain_id)           \
  ::ampere::obs::ScopedMetricsDomain               \
      AMPERE_OBS_DOMAIN_CONCAT(ampere_obs_domain_, \
                               __LINE__)(domain_id)

#endif  // SRC_OBS_METRICS_H_
