#include "src/obs/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/text_format.h"

namespace ampere {
namespace obs {

// --- Metric-name domains -------------------------------------------------

namespace internal {
constinit thread_local DomainId t_current_domain = 0;
}  // namespace internal

namespace {

// Append-only intern table of domain prefixes. Slot 0 is the root (empty
// prefix). Strings live in immortal node storage so DomainPrefix() views
// stay valid forever; the table itself is never freed.
struct DomainTable {
  std::mutex mu;
  std::vector<std::unique_ptr<std::string>> prefixes;

  DomainTable() { prefixes.push_back(std::make_unique<std::string>()); }
};

DomainTable& Domains() {
  static DomainTable* table = new DomainTable();  // Never freed.
  return *table;
}

}  // namespace

DomainId InternDomain(std::string_view prefix) {
  if (prefix.empty()) return 0;
  DomainTable& table = Domains();
  std::lock_guard<std::mutex> lock(table.mu);
  for (size_t i = 0; i < table.prefixes.size(); ++i) {
    if (*table.prefixes[i] == prefix) {
      return static_cast<DomainId>(i);
    }
  }
  table.prefixes.push_back(std::make_unique<std::string>(prefix));
  return static_cast<DomainId>(table.prefixes.size() - 1);
}

std::string_view DomainPrefix(DomainId id) {
  DomainTable& table = Domains();
  std::lock_guard<std::mutex> lock(table.mu);
  AMPERE_CHECK(id < table.prefixes.size()) << "unknown metrics domain " << id;
  return *table.prefixes[id];
}

namespace {

// Thread-local scratch for domain-prefixed names: assigning into a warm
// std::string re-uses its buffer, so prefixing is allocation-free in steady
// state. Leaked (one per thread) so it stays usable during thread teardown.
std::string& DomainScratch() {
  static thread_local std::string* scratch = new std::string();
  return *scratch;
}

// The current domain's prefix applied to `name` — `name` itself for the
// root domain, a view of the thread-local scratch otherwise.
std::string_view ApplyDomain(std::string_view name) {
  const DomainId domain = internal::t_current_domain;
  if (domain == 0) return name;
  std::string& scratch = DomainScratch();
  scratch.assign(DomainPrefix(domain));
  scratch.append(name);
  return scratch;
}

// Prometheus metric names: '.' and other non-alphanumerics become '_'.
std::string PrometheusName(std::string_view name) {
  std::string out = "ampere_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct StringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

template <typename T>
using NameMap = std::unordered_map<std::string, T, StringHash, StringEq>;

// Finds or inserts map[name] without constructing a std::string on the
// (common) hit path.
template <typename T>
T& FindOrInsert(NameMap<T>& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), T{}).first;
  }
  return it->second;
}

// Global sequence for gauge Set() ordering: the merge rule "latest Set wins"
// needs an order that is consistent across shards and registries.
std::atomic<uint64_t> g_gauge_sequence{0};

// Process-unique registry ids; never reused, so a stale thread-local shard
// cache entry can never alias a new registry.
std::atomic<uint64_t> g_next_registry_id{1};

struct GaugeCell {
  double value = 0.0;
  uint64_t sequence = 0;
};

struct HistCell {
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

size_t Log2Bucket(double duration_ns) {
  if (!(duration_ns >= 1.0)) return 0;
  const double l = std::log2(duration_ns);
  const size_t b = static_cast<size_t>(l);
  return b >= kSpanBuckets ? kSpanBuckets - 1 : b;
}

template <typename T>
typename std::vector<T>::iterator LowerBoundByName(std::vector<T>& v,
                                                   const std::string& name) {
  return std::lower_bound(
      v.begin(), v.end(), name,
      [](const T& item, const std::string& n) { return item.name < n; });
}

}  // namespace

// --- Snapshot value helpers ----------------------------------------------

double HistogramValue::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lo;  // Open overflow bucket.
      const double hi = bounds[i];
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double SpanStats::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  double result = max_ns;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double lo = std::exp2(static_cast<double>(i));
      const double hi = std::exp2(static_cast<double>(i + 1));
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      result = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      break;
    }
    seen += in_bucket;
  }
  return std::clamp(result, min_ns, max_ns);
}

const uint64_t* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c.value;
  }
  return nullptr;
}

const double* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g.value;
  }
  return nullptr;
}

const HistogramValue* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const SpanStats* MetricsSnapshot::FindSpan(std::string_view name) const {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& c : other.counters) {
    auto it = LowerBoundByName(counters, c.name);
    if (it != counters.end() && it->name == c.name) {
      it->value += c.value;
    } else {
      counters.insert(it, c);
    }
  }
  for (const auto& g : other.gauges) {
    auto it = LowerBoundByName(gauges, g.name);
    if (it != gauges.end() && it->name == g.name) {
      if (g.sequence >= it->sequence) *it = g;
    } else {
      gauges.insert(it, g);
    }
  }
  for (const auto& h : other.histograms) {
    auto it = LowerBoundByName(histograms, h.name);
    if (it != histograms.end() && it->name == h.name) {
      AMPERE_CHECK(it->counts.size() == h.counts.size())
          << "histogram '" << h.name << "' bucket layout mismatch on merge";
      for (size_t i = 0; i < h.counts.size(); ++i) {
        it->counts[i] += h.counts[i];
      }
      it->count += h.count;
      it->sum += h.sum;
    } else {
      histograms.insert(it, h);
    }
  }
  for (const auto& s : other.spans) {
    auto it = LowerBoundByName(spans, s.name);
    if (it != spans.end() && it->name == s.name) {
      if (it->count == 0) {
        *it = s;
      } else if (s.count > 0) {
        it->min_ns = std::min(it->min_ns, s.min_ns);
        it->max_ns = std::max(it->max_ns, s.max_ns);
        it->count += s.count;
        it->total_ns += s.total_ns;
        for (size_t i = 0; i < kSpanBuckets; ++i) {
          it->buckets[i] += s.buckets[i];
        }
      }
    } else {
      spans.insert(it, s);
    }
  }
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& c : counters) {
    const std::string n = PrometheusName(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    const std::string n = PrometheusName(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + FormatDouble(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    const std::string n = PrometheusName(h.name);
    out += "# TYPE " + n + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      out += n + "_bucket{le=\"" + FormatDouble(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + FormatDouble(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  for (const auto& s : spans) {
    const std::string n = PrometheusName(s.name) + "_seconds";
    out += "# TYPE " + n + " summary\n";
    out += n + "{quantile=\"0.5\"} " + FormatDouble(s.p50_ns() * 1e-9) + "\n";
    out += n + "{quantile=\"0.99\"} " + FormatDouble(s.p99_ns() * 1e-9) + "\n";
    out += n + "_sum " + FormatDouble(s.total_ns * 1e-9) + "\n";
    out += n + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(c.name);
    out += "\":";
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(g.name);
    out += "\":";
    out += FormatDouble(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(h.name);
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += FormatDouble(h.sum);
    out += ",\"mean\":";
    out += FormatDouble(h.mean());
    out += ",\"p50\":";
    out += FormatDouble(h.Quantile(0.50));
    out += ",\"p99\":";
    out += FormatDouble(h.Quantile(0.99));
    out += "}";
  }
  out += "},\"spans\":{";
  first = true;
  for (const auto& s : spans) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(s.name);
    out += "\":{\"count\":";
    out += std::to_string(s.count);
    out += ",\"total_ns\":";
    out += FormatDouble(s.total_ns);
    out += ",\"mean_ns\":";
    out += FormatDouble(s.mean_ns());
    out += ",\"min_ns\":";
    out += FormatDouble(s.min_ns);
    out += ",\"max_ns\":";
    out += FormatDouble(s.max_ns);
    out += ",\"p50_ns\":";
    out += FormatDouble(s.p50_ns());
    out += ",\"p99_ns\":";
    out += FormatDouble(s.p99_ns());
    out += "}";
  }
  out += "}}";
  return out;
}

// --- Registry ------------------------------------------------------------

std::span<const double> DefaultHistogramBounds() {
  // Roughly 1-2.5-5 per decade over 1e-3 .. 1e3 — wide enough for seconds,
  // ratios, and watt-scale residuals alike.
  static constexpr double kBounds[] = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
      1.0,   2.5,    5.0,   10.0, 25.0,  50.0, 100.0, 250.0, 500.0, 1000.0};
  return std::span<const double>(kBounds);
}

struct MetricsRegistry::Shard {
  std::mutex mu;
  NameMap<uint64_t> counters;
  NameMap<GaugeCell> gauges;
  NameMap<HistCell> histograms;
  NameMap<SpanCell> spans;
};

namespace {

// Single-slot thread-local cache: the common case is one registry touched
// repeatedly from one thread (a harness run). Keyed by the process-unique
// registry id so entries for destroyed registries can never be mistaken for
// live ones.
struct ShardCache {
  uint64_t registry_id = 0;
  MetricsRegistry::Shard* shard = nullptr;
};
thread_local ShardCache t_shard_cache;

// Secondary map for threads that interleave writes to several registries.
thread_local std::unordered_map<uint64_t, MetricsRegistry::Shard*>*
    t_shard_map = nullptr;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  if (t_shard_cache.registry_id == id_) {
    return *t_shard_cache.shard;
  }
  if (t_shard_map != nullptr) {
    auto it = t_shard_map->find(id_);
    if (it != t_shard_map->end()) {
      t_shard_cache = {id_, it->second};
      return *it->second;
    }
  }
  Shard* shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<Shard>());
    shard = shards_.back().get();
  }
  if (t_shard_cache.shard != nullptr) {
    // Evicting a live cache entry: keep it reachable via the map so the
    // thread does not create a second shard for that registry later.
    if (t_shard_map == nullptr) {
      static thread_local std::unordered_map<uint64_t, Shard*> map_storage;
      t_shard_map = &map_storage;
    }
    (*t_shard_map)[t_shard_cache.registry_id] = t_shard_cache.shard;
  }
  if (t_shard_map != nullptr) (*t_shard_map)[id_] = shard;
  t_shard_cache = {id_, shard};
  return *shard;
}

void MetricsRegistry::CounterAdd(std::string_view name, uint64_t delta) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  FindOrInsert(shard.counters, name) += delta;
}

uint64_t* MetricsRegistry::CounterCell(std::string_view name) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  return &FindOrInsert(shard.counters, name);
}

void CounterSite::Rebind(MetricsRegistry& registry, Binding& binding) {
  // Read the epoch before resolving the cell: if a Reset() lands in
  // between, the cached epoch is already stale and the next Add() simply
  // rebinds again — a binding can cache an old cell for at most one call.
  // The cell is resolved under the *current domain's* prefixed name; the
  // registry copies the name into its map, so no prefixed storage needs to
  // outlive this call.
  const uint64_t epoch = registry.epoch();
  const DomainId domain = internal::t_current_domain;
  binding.cell = registry.CounterCell(ApplyDomain(name_));
  binding.registry_id = registry.id();
  binding.epoch = epoch;
  binding.domain = domain;
  ++rebinds_;
}

void MetricsRegistry::GaugeSet(std::string_view name, double value) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  GaugeCell& cell = FindOrInsert(shard.gauges, name);
  cell.value = value;
  cell.sequence = g_gauge_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
}

void MetricsRegistry::HistogramObserve(std::string_view name, double value,
                                       std::span<const double> bounds) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  HistCell& cell = FindOrInsert(shard.histograms, name);
  if (cell.counts.empty()) {
    cell.bounds.assign(bounds.begin(), bounds.end());
    cell.counts.assign(bounds.size() + 1, 0);
  } else {
    AMPERE_CHECK(cell.bounds.size() == bounds.size())
        << "histogram '" << name << "' observed with a different bucket count";
  }
  const auto it =
      std::lower_bound(cell.bounds.begin(), cell.bounds.end(), value);
  cell.counts[static_cast<size_t>(it - cell.bounds.begin())] += 1;
  cell.count += 1;
  cell.sum += value;
}

void MetricsRegistry::SpanRecord(std::string_view name, double duration_ns) {
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  SpanCell& cell = FindOrInsert(shard.spans, name);
  if (cell.count == 0) {
    cell.min_ns = duration_ns;
    cell.max_ns = duration_ns;
  } else {
    cell.min_ns = std::min(cell.min_ns, duration_ns);
    cell.max_ns = std::max(cell.max_ns, duration_ns);
  }
  cell.count += 1;
  cell.total_ns += duration_ns;
  cell.buckets[Log2Bucket(duration_ns)] += 1;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    MetricsSnapshot part;
    {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      part.counters.reserve(shard->counters.size());
      for (auto& [name, value] : shard->counters) {
        // CounterSite increments bypass the shard mutex; read through
        // atomic_ref so this cross-thread read is race-free.
        part.counters.push_back(CounterValue{
            name, std::atomic_ref<uint64_t>(value).load(
                      std::memory_order_relaxed)});
      }
      part.gauges.reserve(shard->gauges.size());
      for (const auto& [name, cell] : shard->gauges) {
        part.gauges.push_back(GaugeValue{name, cell.value, cell.sequence});
      }
      part.histograms.reserve(shard->histograms.size());
      for (const auto& [name, cell] : shard->histograms) {
        HistogramValue h;
        h.name = name;
        h.bounds = cell.bounds;
        h.counts = cell.counts;
        h.count = cell.count;
        h.sum = cell.sum;
        part.histograms.push_back(std::move(h));
      }
      part.spans.reserve(shard->spans.size());
      for (const auto& [name, cell] : shard->spans) {
        SpanStats s;
        s.name = name;
        s.count = cell.count;
        s.total_ns = cell.total_ns;
        s.min_ns = cell.min_ns;
        s.max_ns = cell.max_ns;
        s.buckets.assign(cell.buckets.begin(), cell.buckets.end());
        part.spans.push_back(std::move(s));
      }
    }
    auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
    std::sort(part.counters.begin(), part.counters.end(), by_name);
    std::sort(part.gauges.begin(), part.gauges.end(), by_name);
    std::sort(part.histograms.begin(), part.histograms.end(), by_name);
    std::sort(part.spans.begin(), part.spans.end(), by_name);
    snapshot.MergeFrom(part);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  // Invalidate every cached CounterCell() pointer before freeing the nodes.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->counters.clear();
    shard->gauges.clear();
    shard->histograms.clear();
    shard->spans.clear();
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never freed.
  return *registry;
}

// --- Current-registry scoping -------------------------------------------

namespace {
thread_local MetricsRegistry* t_current_registry = nullptr;
}  // namespace

MetricsRegistry* CurrentMetrics() {
  return t_current_registry != nullptr ? t_current_registry
                                       : &MetricsRegistry::Default();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry* registry)
    : previous_(t_current_registry) {
  t_current_registry = registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  t_current_registry = previous_;
}

// --- Domain-aware free functions -----------------------------------------

void CounterAdd(std::string_view name, uint64_t delta) {
  CurrentMetrics()->CounterAdd(ApplyDomain(name), delta);
}

void GaugeSet(std::string_view name, double value) {
  CurrentMetrics()->GaugeSet(ApplyDomain(name), value);
}

void HistogramObserve(std::string_view name, double value) {
  CurrentMetrics()->HistogramObserve(ApplyDomain(name), value);
}

void HistogramObserve(std::string_view name, double value,
                      std::span<const double> bounds) {
  CurrentMetrics()->HistogramObserve(ApplyDomain(name), value, bounds);
}

void SpanRecord(std::string_view name, double duration_ns) {
  CurrentMetrics()->SpanRecord(ApplyDomain(name), duration_ns);
}

}  // namespace obs
}  // namespace ampere
