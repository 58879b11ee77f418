#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/text_format.h"

namespace ampere {
namespace obs {

// --- Metric-name domains -------------------------------------------------

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

// `domain`'s prefix applied to `name` — `name` itself for the root
// domain, a view of the thread-local scratch otherwise.
std::string_view ApplyDomain(DomainId domain, std::string_view name) {
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

// Finds or inserts map[name] without constructing a std::string on the
// (common) hit path.
template <typename Map>
typename Map::mapped_type& FindOrInsert(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

size_t Log2Bucket(double duration_ns) {
  if (!(duration_ns >= 1.0)) return 0;
  const double l = std::log2(duration_ns);
  const size_t b = static_cast<size_t>(l);
  return b >= kSpanBuckets ? kSpanBuckets - 1 : b;
}

}  // namespace

// --- Snapshot value helpers ----------------------------------------------

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

const SpanStats* MetricsSnapshot::FindSpan(std::string_view name) const {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
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

MetricsRegistry::MetricsRegistry() : owner_(std::this_thread::get_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

void MetricsRegistry::CheckOwner() const {
  AMPERE_CHECK(std::this_thread::get_id() == owner_)
      << "metrics registry used off the thread that constructed it";
}

void MetricsRegistry::CounterAdd(std::string_view name, uint64_t delta) {
  FindOrInsert(counters_, name) += delta;
}

void MetricsRegistry::GaugeSet(std::string_view name, double value) {
  FindOrInsert(gauges_, name) = value;
}

void MetricsRegistry::SpanRecord(std::string_view name, double duration_ns) {
  SpanCell& cell = FindOrInsert(spans_, name);
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
  CheckOwner();
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    snapshot.counters.push_back(CounterValue{name, value});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, value] : gauges_) {
    snapshot.gauges.push_back(GaugeValue{name, value});
  }
  snapshot.spans.reserve(spans_.size());
  for (const auto& [name, cell] : spans_) {
    snapshot.spans.push_back(SpanStats{
        name, cell.count, cell.total_ns, cell.min_ns, cell.max_ns,
        std::vector<uint64_t>(cell.buckets.begin(), cell.buckets.end())});
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.spans.begin(), snapshot.spans.end(), by_name);
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Default() {
  static thread_local MetricsRegistry registry;
  return registry;
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
  if (registry != nullptr) registry->CheckOwner();
  t_current_registry = registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  t_current_registry = previous_;
}

// --- Domain-prefixed free functions --------------------------------------

void CounterAdd(DomainId domain, std::string_view name, uint64_t delta) {
  CurrentMetrics()->CounterAdd(ApplyDomain(domain, name), delta);
}

void GaugeSet(DomainId domain, std::string_view name, double value) {
  CurrentMetrics()->GaugeSet(ApplyDomain(domain, name), value);
}

void SpanRecord(DomainId domain, std::string_view name, double duration_ns) {
  CurrentMetrics()->SpanRecord(ApplyDomain(domain, name), duration_ns);
}

}  // namespace obs
}  // namespace ampere
