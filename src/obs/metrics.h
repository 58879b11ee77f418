// Low-overhead metrics registry for the observability layer.
//
// The production Ampere daemon exports continuous telemetry about the
// controller itself — tick latency, prediction error, actuation counts —
// alongside the power telemetry it consumes. This registry is the in-process
// half of that: named counters, gauges, and fixed-bucket histograms, plus
// wall-clock trace spans (src/obs/span.h) aggregated per name.
//
// Single-writer contract: a registry belongs to the thread that constructed
// it. Only that thread writes it, installs it (ScopedMetricsRegistry) and
// snapshots it; the last two AMPERE_CHECK the owner, writes are unchecked.
// Writes are plain map updates with no lock, and Snapshot() copies the four
// name maps and sorts each by name.
//
// Scoping: instrumented code writes to the *current* registry —
// a thread-local override installed by ScopedMetricsRegistry, falling back
// to the calling thread's own Default() registry. The scenario runner
// installs one private registry per run (like ScopedLogCapture), so every
// harness run writes, and a postmortem snapshots, only its own metrics,
// whatever the job count; `--obs` only decides whether the run's snapshot
// is emitted.
//
// Cost control: call sites use the AMPERE_COUNTER_ADD / AMPERE_GAUGE_SET /
// AMPERE_HISTOGRAM_OBSERVE macros below (and AMPERE_SPAN from span.h).
// Instrumentation is always on: a per-event counter site is a cached cell
// increment (CounterSite), and minute-cadence sites take the hashing path.
//
// Determinism contract: the registry only *observes*. It never touches RNG
// streams or simulation state, so instrumented runs produce bit-identical
// simulation results to uninstrumented ones.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
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

// A name-sorted copy of one registry.
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
  // The constructing thread becomes the registry's owner.
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void CounterAdd(std::string_view name, uint64_t delta = 1);
  void GaugeSet(std::string_view name, double value);

  // Process-unique registry id, never reused. Call-site caches (CounterSite
  // below) compare it to detect, in O(1), that a cached cell pointer
  // belongs to a different registry — even one at a dead registry's
  // address, as each harness run's stack registry is.
  uint64_t id() const { return id_; }

  // Stable address of the counter cell for `name` (the name maps are
  // node-based, so the address survives rehashing). Valid until the
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

  struct HistogramCell {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  // bounds.size() + 1.
    uint64_t count = 0;
    double sum = 0.0;
  };
  struct SpanCell {
    uint64_t count = 0;
    double total_ns = 0.0;
    double min_ns = 0.0;
    double max_ns = 0.0;
    std::array<uint64_t, kSpanBuckets> buckets{};
  };

  const uint64_t id_;
  const std::thread::id owner_;
  NameMap<uint64_t> counters_;
  NameMap<double> gauges_;
  NameMap<HistogramCell> histograms_;
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
// The generic CounterAdd pays a string hash probe (and, under a domain, a
// prefix copy) on every call — fine at minute cadence, too heavy for
// per-event sites inside the simulation loop (job submitted, task placed).
// A CounterSite caches resolved cell pointers per (call site, thread), one
// binding per metrics domain in a small direct-mapped table indexed by the
// interned DomainId: a campus's DCs switch domain on nearly every event,
// and each DC keeps its own binding. The steady-state Add() is a table
// index, two compares and an increment. A miss (first use of a domain, two
// domains sharing a slot, or a registry switch) rebinds through the
// hashing path.
//
// Correctness: the site is thread_local and the registry single-writer, so
// the increment is a plain one. A registry switch (ScopedMetricsRegistry)
// or a domain switch (ScopedMetricsDomain) is detected by comparing the
// binding's registry id and domain, after which it rebinds — a binding
// caches the cell of its *domain-prefixed* name, so "controller.ticks"
// emitted under domain "dc0/" lands in dc0/controller.ticks.
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
    if (registry->id() != binding.registry_id || domain != binding.domain)
        [[unlikely]] {
      Rebind(*registry, binding);
    }
    *binding.cell += delta;
  }

  // Rebinds so far: hashing lookups taken by Add(). Zero misses after warm-up
  // is the property the table exists for.
  uint64_t rebinds() const { return rebinds_; }

 private:
  // Enough for the root plus a campus of DCs without two sharing a slot.
  static constexpr size_t kBindings = 8;
  struct Binding {
    uint64_t* cell = nullptr;
    uint64_t registry_id = 0;  // 0 is never a live registry id.
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
