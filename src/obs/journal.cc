#include "src/obs/journal.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/text_format.h"

namespace ampere {
namespace obs {

namespace {

std::vector<std::string_view> SplitLine(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      fields.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseI64(std::string_view s, int64_t* out) {
  bool negative = false;
  if (!s.empty() && s.front() == '-') {
    negative = true;
    s.remove_prefix(1);
  }
  uint64_t v;
  if (!ParseU64(s, &v)) return false;
  *out = negative ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  return true;
}

bool ParseF64(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseBool(std::string_view s, bool* out) {
  if (s == "1") {
    *out = true;
    return true;
  }
  if (s == "0") {
    *out = false;
    return true;
  }
  return false;
}

constexpr char kCsvHeader[] =
    "seq,time_us,domain,observed_watts,budget_watts,normalized_power,et,"
    "violation,predicted_next,realized_next,realized_valid,u,cap_engaged,"
    "n_freeze,n_servers,freeze_ops,unfreeze_ops,pool_size,p_threshold,"
    "degraded,reading_age_us,et_effective,rpc_failures,rpc_giveups";
constexpr size_t kCsvFields = 24;

}  // namespace

// --- JournalSummary ------------------------------------------------------

const JournalDomainSummary* JournalSummary::FindDomain(
    std::string_view name) const {
  for (const auto& d : domains) {
    if (d.domain == name) return &d;
  }
  return nullptr;
}

std::string JournalSummary::ToJson() const {
  std::string out = "{\"records\":";
  out += std::to_string(records);
  out += ",\"total_appended\":";
  out += std::to_string(total_appended);
  out += ",\"domains\":{";
  bool first = true;
  for (const auto& d : domains) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(d.domain);
    out += "\":{\"ticks\":";
    out += std::to_string(d.ticks);
    out += ",\"violations\":";
    out += std::to_string(d.violations);
    out += ",\"capped_ticks\":";
    out += std::to_string(d.capped_ticks);
    out += ",\"u_mean\":";
    out += FormatDouble(d.u_mean);
    out += ",\"u_max\":";
    out += FormatDouble(d.u_max);
    out += ",\"p_mean\":";
    out += FormatDouble(d.p_mean);
    out += ",\"p_max\":";
    out += FormatDouble(d.p_max);
    out += ",\"degraded_ticks\":";
    out += std::to_string(d.degraded_ticks);
    out += ",\"blackout_skips\":";
    out += std::to_string(d.blackout_skips);
    out += ",\"rpc_failures\":";
    out += std::to_string(d.rpc_failures);
    out += ",\"rpc_giveups\":";
    out += std::to_string(d.rpc_giveups);
    out += "}";
  }
  out += "}}";
  return out;
}

// --- DecisionJournal -----------------------------------------------------

DecisionJournal::DecisionJournal(size_t capacity) : capacity_(capacity) {
  AMPERE_CHECK(capacity_ > 0) << "DecisionJournal capacity must be positive";
  records_.reserve(std::min<size_t>(capacity_, 1024));
}

uint64_t DecisionJournal::Append(DecisionRecord record) {
  record.seq = next_seq_++;
  if (records_.size() < capacity_) {
    records_.push_back(std::move(record));
  } else {
    records_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
  }
  return next_seq_ - 1;
}

size_t DecisionJournal::IndexOfSeq(uint64_t seq) const {
  if (seq >= next_seq_) return records_.size();
  const uint64_t oldest = next_seq_ - records_.size();
  if (seq < oldest) return records_.size();  // Evicted.
  return (head_ + static_cast<size_t>(seq - oldest)) % capacity_;
}

bool DecisionJournal::SetRealized(uint64_t seq, double realized_next) {
  const size_t index = IndexOfSeq(seq);
  if (index >= records_.size()) return false;
  records_[index].realized_next = realized_next;
  records_[index].realized_valid = true;
  return true;
}

std::vector<DecisionRecord> DecisionJournal::Query(
    SimTime begin, SimTime end, std::string_view domain) const {
  std::vector<DecisionRecord> out;
  const size_t n = records_.size();
  for (size_t i = 0; i < n; ++i) {
    const DecisionRecord& r = records_[(head_ + i) % capacity_];
    if (r.time < begin || r.time >= end) continue;
    if (!domain.empty() && r.domain != domain) continue;
    out.push_back(r);
  }
  return out;
}

std::vector<DecisionRecord> DecisionJournal::Tail(
    size_t n, std::string_view domain) const {
  std::vector<DecisionRecord> out;
  const size_t live = records_.size();
  // Walk backwards collecting up to n matches, then reverse to oldest-first.
  for (size_t i = live; i-- > 0 && out.size() < n;) {
    const DecisionRecord& r = records_[(head_ + i) % capacity_];
    if (!domain.empty() && r.domain != domain) continue;
    out.push_back(r);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

JournalSummary DecisionJournal::Summarize() const {
  JournalSummary summary;
  summary.records = records_.size();
  summary.total_appended = next_seq_;

  // Accumulate sums per domain in append order — the same order and
  // arithmetic as GroupReport::Finalize (sum over minutes, then divide),
  // so the results are bit-identical to a recorder that saw the same ticks.
  struct Accum {
    uint64_t ticks = 0;
    uint64_t violations = 0;
    uint64_t capped = 0;
    double u_sum = 0.0;
    double u_max = 0.0;
    double p_sum = 0.0;
    double p_max = 0.0;
    uint64_t degraded = 0;
    uint64_t blackout_skips = 0;
    uint64_t rpc_failures = 0;
    uint64_t rpc_giveups = 0;
  };
  std::map<std::string, Accum> accums;  // Name-sorted for free.
  const size_t n = records_.size();
  for (size_t i = 0; i < n; ++i) {
    const DecisionRecord& r = records_[(head_ + i) % capacity_];
    Accum& a = accums[r.domain];
    a.ticks += 1;
    if (r.violation) a.violations += 1;
    if (r.cap_engaged) a.capped += 1;
    // Aggregate the *realized* freeze ratio n_freeze / n_servers — the exact
    // division MinutePoint.freeze_ratio performs — not the solved u_t. After
    // reconciliation the frozen set always has exactly n_freeze members, so
    // this is the quantity GroupReport's u_mean / u_max are built from.
    const double realized_u =
        r.n_servers > 0 ? static_cast<double>(r.n_freeze) /
                              static_cast<double>(r.n_servers)
                        : 0.0;
    a.u_sum += realized_u;
    a.u_max = std::max(a.u_max, realized_u);
    a.p_sum += r.normalized_power;
    a.p_max = std::max(a.p_max, r.normalized_power);
    if (r.degraded != DegradedMode::kNone) a.degraded += 1;
    if (r.degraded == DegradedMode::kBlackoutSkip) a.blackout_skips += 1;
    a.rpc_failures += r.rpc_failures;
    a.rpc_giveups += r.rpc_giveups;
  }
  summary.domains.reserve(accums.size());
  for (const auto& [name, a] : accums) {
    JournalDomainSummary d;
    d.domain = name;
    d.ticks = a.ticks;
    d.violations = a.violations;
    d.capped_ticks = a.capped;
    d.u_mean = a.ticks > 0 ? a.u_sum / static_cast<double>(a.ticks) : 0.0;
    d.u_max = a.u_max;
    d.p_mean = a.ticks > 0 ? a.p_sum / static_cast<double>(a.ticks) : 0.0;
    d.p_max = a.p_max;
    d.degraded_ticks = a.degraded;
    d.blackout_skips = a.blackout_skips;
    d.rpc_failures = a.rpc_failures;
    d.rpc_giveups = a.rpc_giveups;
    summary.domains.push_back(std::move(d));
  }
  return summary;
}

std::optional<double> DecisionJournal::RollingModelRmse(
    size_t window, std::string_view domain) const {
  double sum_sq = 0.0;
  size_t count = 0;
  const size_t live = records_.size();
  for (size_t i = live; i-- > 0 && count < window;) {
    const DecisionRecord& r = records_[(head_ + i) % capacity_];
    if (!r.realized_valid) continue;
    if (!domain.empty() && r.domain != domain) continue;
    const double err = r.predicted_next - r.realized_next;
    sum_sq += err * err;
    count += 1;
  }
  if (count == 0) return std::nullopt;
  return std::sqrt(sum_sq / static_cast<double>(count));
}

std::optional<double> DecisionJournal::RollingEtMarginUtilization(
    size_t window, std::string_view domain) const {
  double sum = 0.0;
  size_t count = 0;
  const size_t live = records_.size();
  for (size_t i = live; i-- > 0 && count < window;) {
    const DecisionRecord& r = records_[(head_ + i) % capacity_];
    if (!r.realized_valid || r.et == 0.0) continue;
    if (!domain.empty() && r.domain != domain) continue;
    sum += 1.0 + (r.realized_next - r.predicted_next) / r.et;
    count += 1;
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

const char* DecisionJournal::CsvHeader() { return kCsvHeader; }

std::string DecisionJournal::ToCsv() const {
  std::string out = kCsvHeader;
  out += '\n';
  const size_t n = records_.size();
  for (size_t i = 0; i < n; ++i) {
    const DecisionRecord& r = records_[(head_ + i) % capacity_];
    out += std::to_string(r.seq);
    out += ',' + std::to_string(r.time.micros());
    out += ',' + CsvEscape(r.domain);
    out += ',' + FormatDouble(r.observed_watts);
    out += ',' + FormatDouble(r.budget_watts);
    out += ',' + FormatDouble(r.normalized_power);
    out += ',' + FormatDouble(r.et);
    out += r.violation ? ",1" : ",0";
    out += ',' + FormatDouble(r.predicted_next);
    out += ',' + FormatDouble(r.realized_next);
    out += r.realized_valid ? ",1" : ",0";
    out += ',' + FormatDouble(r.u);
    out += r.cap_engaged ? ",1" : ",0";
    out += ',' + std::to_string(r.n_freeze);
    out += ',' + std::to_string(r.n_servers);
    out += ',' + std::to_string(r.freeze_ops);
    out += ',' + std::to_string(r.unfreeze_ops);
    out += ',' + std::to_string(r.pool_size);
    out += ',' + FormatDouble(r.p_threshold);
    out += ',' + std::to_string(static_cast<uint32_t>(r.degraded));
    out += ',' + std::to_string(r.reading_age_us);
    out += ',' + FormatDouble(r.et_effective);
    out += ',' + std::to_string(r.rpc_failures);
    out += ',' + std::to_string(r.rpc_giveups);
    out += '\n';
  }
  return out;
}

std::string DecisionRecordToJson(const DecisionRecord& r) {
  std::string out;
  AppendDecisionRecordJson(out, r);
  return out;
}

void AppendDecisionRecordJson(std::string& out, const DecisionRecord& r) {
  {
    out += "{\"seq\":";
    out += std::to_string(r.seq);
    out += ",\"time_us\":";
    out += std::to_string(r.time.micros());
    out += ",\"domain\":\"";
    out += JsonEscape(r.domain);
    out += "\",\"observed_watts\":";
    out += FormatDouble(r.observed_watts);
    out += ",\"budget_watts\":";
    out += FormatDouble(r.budget_watts);
    out += ",\"normalized_power\":";
    out += FormatDouble(r.normalized_power);
    out += ",\"et\":";
    out += FormatDouble(r.et);
    out += ",\"violation\":";
    out += r.violation ? "true" : "false";
    out += ",\"predicted_next\":";
    out += FormatDouble(r.predicted_next);
    out += ",\"realized_next\":";
    out += FormatDouble(r.realized_next);
    out += ",\"realized_valid\":";
    out += r.realized_valid ? "true" : "false";
    out += ",\"u\":";
    out += FormatDouble(r.u);
    out += ",\"cap_engaged\":";
    out += r.cap_engaged ? "true" : "false";
    out += ",\"n_freeze\":";
    out += std::to_string(r.n_freeze);
    out += ",\"n_servers\":";
    out += std::to_string(r.n_servers);
    out += ",\"freeze_ops\":";
    out += std::to_string(r.freeze_ops);
    out += ",\"unfreeze_ops\":";
    out += std::to_string(r.unfreeze_ops);
    out += ",\"pool_size\":";
    out += std::to_string(r.pool_size);
    out += ",\"p_threshold\":";
    out += FormatDouble(r.p_threshold);
    out += ",\"degraded\":";
    out += std::to_string(static_cast<uint32_t>(r.degraded));
    out += ",\"reading_age_us\":";
    out += std::to_string(r.reading_age_us);
    out += ",\"et_effective\":";
    out += FormatDouble(r.et_effective);
    out += ",\"rpc_failures\":";
    out += std::to_string(r.rpc_failures);
    out += ",\"rpc_giveups\":";
    out += std::to_string(r.rpc_giveups);
    out += "}";
  }
}

std::string DecisionJournal::ToJson() const {
  std::string out = "[";
  const size_t n = records_.size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ",";
    AppendDecisionRecordJson(out, records_[(head_ + i) % capacity_]);
  }
  out += "]";
  return out;
}

std::optional<std::vector<DecisionRecord>> DecisionJournal::ParseCsv(
    std::string_view csv) {
  std::vector<DecisionRecord> out;
  size_t line_start = 0;
  bool saw_header = false;
  while (line_start < csv.size()) {
    size_t line_end = csv.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = csv.size();
    const std::string_view line = csv.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kCsvHeader) return std::nullopt;
      saw_header = true;
      continue;
    }
    const auto fields = SplitLine(line);
    if (fields.size() != kCsvFields) return std::nullopt;
    DecisionRecord r;
    int64_t time_us = 0;
    int64_t reading_age_us = 0;
    uint64_t n_freeze, n_servers, freeze_ops, unfreeze_ops, pool_size;
    uint64_t degraded, rpc_failures, rpc_giveups;
    const bool ok =
        ParseU64(fields[0], &r.seq) && ParseI64(fields[1], &time_us) &&
        ParseF64(fields[3], &r.observed_watts) &&
        ParseF64(fields[4], &r.budget_watts) &&
        ParseF64(fields[5], &r.normalized_power) &&
        ParseF64(fields[6], &r.et) && ParseBool(fields[7], &r.violation) &&
        ParseF64(fields[8], &r.predicted_next) &&
        ParseF64(fields[9], &r.realized_next) &&
        ParseBool(fields[10], &r.realized_valid) &&
        ParseF64(fields[11], &r.u) && ParseBool(fields[12], &r.cap_engaged) &&
        ParseU64(fields[13], &n_freeze) && ParseU64(fields[14], &n_servers) &&
        ParseU64(fields[15], &freeze_ops) &&
        ParseU64(fields[16], &unfreeze_ops) &&
        ParseU64(fields[17], &pool_size) &&
        ParseF64(fields[18], &r.p_threshold) &&
        ParseU64(fields[19], &degraded) && degraded <= 2 &&
        ParseI64(fields[20], &reading_age_us) &&
        ParseF64(fields[21], &r.et_effective) &&
        ParseU64(fields[22], &rpc_failures) &&
        ParseU64(fields[23], &rpc_giveups);
    if (!ok) return std::nullopt;
    r.time = SimTime::Micros(time_us);
    r.domain = std::string(fields[2]);
    r.n_freeze = static_cast<uint32_t>(n_freeze);
    r.n_servers = static_cast<uint32_t>(n_servers);
    r.freeze_ops = static_cast<uint32_t>(freeze_ops);
    r.unfreeze_ops = static_cast<uint32_t>(unfreeze_ops);
    r.pool_size = static_cast<uint32_t>(pool_size);
    r.degraded = static_cast<DegradedMode>(degraded);
    r.reading_age_us = reading_age_us;
    r.rpc_failures = static_cast<uint32_t>(rpc_failures);
    r.rpc_giveups = static_cast<uint32_t>(rpc_giveups);
    out.push_back(std::move(r));
  }
  if (!saw_header) return std::nullopt;
  return out;
}

}  // namespace obs
}  // namespace ampere
