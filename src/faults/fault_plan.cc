#include "src/faults/fault_plan.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/text_format.h"

namespace ampere {
namespace faults {

namespace {

// Draws a Poisson-process window schedule: exponential gaps at
// `rate_per_hour`, exponential durations with mean `mean`, channels uniform
// in [0, channels) (or kAllChannels when channels == 0).
std::vector<FaultWindow> DrawWindows(Rng* rng, double rate_per_hour,
                                     SimTime mean, uint32_t channels,
                                     SimTime horizon) {
  std::vector<FaultWindow> out;
  if (rate_per_hour <= 0.0 || mean <= SimTime() || horizon <= SimTime()) {
    return out;
  }
  const double mean_gap_minutes = 60.0 / rate_per_hour;
  SimTime t;
  while (true) {
    t += SimTime::Minutes(rng->Exponential(mean_gap_minutes));
    if (t >= horizon) break;
    SimTime duration =
        SimTime::Seconds(rng->Exponential(mean.seconds()));
    // At least one second so a window is never empty.
    if (duration < SimTime::Seconds(1)) duration = SimTime::Seconds(1);
    FaultWindow w;
    w.begin = t;
    w.end = std::min(t + duration, horizon);
    w.channel = channels == 0
                    ? kAllChannels
                    : static_cast<uint32_t>(rng->UniformInt(
                          0, static_cast<int64_t>(channels) - 1));
    out.push_back(w);
    t = w.end;
  }
  return FaultPlan::Normalize(std::move(out));
}

bool CoveredBy(const std::vector<FaultWindow>& windows, uint32_t channel,
               SimTime t) {
  for (const FaultWindow& w : windows) {
    if ((w.channel == channel || w.channel == kAllChannels) && w.Contains(t)) {
      return true;
    }
  }
  return false;
}

bool ParseU64Field(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseI64Field(std::string_view s, int64_t* out) {
  bool negative = false;
  if (!s.empty() && s.front() == '-') {
    negative = true;
    s.remove_prefix(1);
  }
  uint64_t v;
  if (!ParseU64Field(s, &v)) return false;
  *out = negative ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  return true;
}

bool ParseF64Field(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

}  // namespace

FaultPlan FaultPlan::Generate(const FaultPlanConfig& config, SimTime horizon) {
  AMPERE_CHECK(config.sample_dropout_prob >= 0.0 &&
               config.sample_dropout_prob <= 1.0);
  AMPERE_CHECK(config.noise_spike_prob >= 0.0 &&
               config.noise_spike_prob <= 1.0);
  AMPERE_CHECK(config.rpc_failure_prob >= 0.0 &&
               config.rpc_failure_prob <= 1.0);
  AMPERE_CHECK(config.rpc_max_attempts >= 1);
  AMPERE_CHECK(config.blackout_channels >= 1);

  FaultPlan plan;
  plan.config_ = config;
  plan.horizon_ = horizon;
  // Distinct forked streams per window kind, so changing one rate never
  // shifts the other kind's schedule.
  Rng root(config.seed);
  Rng stale_rng = root.Fork(0x57a1e);
  Rng blackout_rng = root.Fork(0xb1ac0);
  plan.stale_windows_ =
      DrawWindows(&stale_rng, config.stale_windows_per_hour,
                  config.stale_window_mean, /*channels=*/0, horizon);
  plan.blackout_windows_ =
      DrawWindows(&blackout_rng, config.blackouts_per_hour,
                  config.blackout_mean, config.blackout_channels, horizon);
  return plan;
}

std::vector<FaultWindow> FaultPlan::Normalize(
    std::vector<FaultWindow> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              if (a.channel != b.channel) return a.channel < b.channel;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  std::vector<FaultWindow> out;
  for (const FaultWindow& w : windows) {
    if (w.end <= w.begin) continue;  // Drop empty windows.
    if (!out.empty() && out.back().channel == w.channel &&
        w.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, w.end);
    } else {
      out.push_back(w);
    }
  }
  return out;
}

FaultPlan FaultPlan::Compose(const FaultPlan& a, const FaultPlan& b) {
  auto hazard = [](double pa, double pb) {
    return 1.0 - (1.0 - pa) * (1.0 - pb);
  };
  FaultPlan plan;
  FaultPlanConfig& c = plan.config_;
  const FaultPlanConfig& ca = a.config_;
  const FaultPlanConfig& cb = b.config_;
  // SplitMix-style mix so the composed injector streams differ from both
  // parents even when one seed is zero.
  c.seed = ca.seed * 0x9e3779b97f4a7c15ull + cb.seed + 0xbf58476d1ce4e5b9ull;
  c.sample_dropout_prob = hazard(ca.sample_dropout_prob,
                                 cb.sample_dropout_prob);
  c.noise_spike_prob = hazard(ca.noise_spike_prob, cb.noise_spike_prob);
  c.noise_spike_sigma_watts =
      std::max(ca.noise_spike_sigma_watts, cb.noise_spike_sigma_watts);
  c.sensor_bias_watts = ca.sensor_bias_watts + cb.sensor_bias_watts;
  c.stale_windows_per_hour =
      ca.stale_windows_per_hour + cb.stale_windows_per_hour;
  c.stale_window_mean = std::max(ca.stale_window_mean, cb.stale_window_mean);
  c.blackouts_per_hour = ca.blackouts_per_hour + cb.blackouts_per_hour;
  c.blackout_mean = std::max(ca.blackout_mean, cb.blackout_mean);
  c.blackout_channels = std::max(ca.blackout_channels, cb.blackout_channels);
  c.rpc_failure_prob = hazard(ca.rpc_failure_prob, cb.rpc_failure_prob);
  c.rpc_latency_mean = std::max(ca.rpc_latency_mean, cb.rpc_latency_mean);
  c.rpc_max_attempts = std::max(ca.rpc_max_attempts, cb.rpc_max_attempts);
  c.rpc_backoff_base = std::max(ca.rpc_backoff_base, cb.rpc_backoff_base);

  plan.horizon_ = std::max(a.horizon_, b.horizon_);
  std::vector<FaultWindow> stale = a.stale_windows_;
  stale.insert(stale.end(), b.stale_windows_.begin(), b.stale_windows_.end());
  plan.stale_windows_ = Normalize(std::move(stale));
  std::vector<FaultWindow> black = a.blackout_windows_;
  black.insert(black.end(), b.blackout_windows_.begin(),
               b.blackout_windows_.end());
  plan.blackout_windows_ = Normalize(std::move(black));
  return plan;
}

bool FaultPlan::InStaleWindow(SimTime t) const {
  return CoveredBy(stale_windows_, kAllChannels, t);
}

bool FaultPlan::InBlackout(uint32_t channel, SimTime t) const {
  return CoveredBy(blackout_windows_, channel, t);
}

uint32_t FaultPlan::ChannelIndex(std::string_view name,
                                 uint32_t num_channels) {
  // FNV-1a 32-bit: stable across platforms and library versions (std::hash
  // is not), so a plan generated on one machine replays anywhere.
  uint32_t h = 2166136261u;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return num_channels == 0 ? 0 : h % num_channels;
}

std::string FaultPlan::Serialize() const {
  std::string out = "faultplan v1\n";
  auto kv = [&out](std::string_view key, const std::string& value) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  };
  kv("seed", std::to_string(config_.seed));
  kv("horizon_us", std::to_string(horizon_.micros()));
  kv("sample_dropout_prob", FormatDouble(config_.sample_dropout_prob));
  kv("noise_spike_prob", FormatDouble(config_.noise_spike_prob));
  kv("noise_spike_sigma_watts",
     FormatDouble(config_.noise_spike_sigma_watts));
  kv("sensor_bias_watts", FormatDouble(config_.sensor_bias_watts));
  kv("stale_windows_per_hour", FormatDouble(config_.stale_windows_per_hour));
  kv("stale_window_mean_us",
     std::to_string(config_.stale_window_mean.micros()));
  kv("blackouts_per_hour", FormatDouble(config_.blackouts_per_hour));
  kv("blackout_mean_us", std::to_string(config_.blackout_mean.micros()));
  kv("blackout_channels", std::to_string(config_.blackout_channels));
  kv("rpc_failure_prob", FormatDouble(config_.rpc_failure_prob));
  kv("rpc_latency_mean_us",
     std::to_string(config_.rpc_latency_mean.micros()));
  kv("rpc_max_attempts", std::to_string(config_.rpc_max_attempts));
  kv("rpc_backoff_base_us",
     std::to_string(config_.rpc_backoff_base.micros()));
  for (const FaultWindow& w : stale_windows_) {
    out += "stale " + std::to_string(w.begin.micros()) + ' ' +
           std::to_string(w.end.micros()) + '\n';
  }
  for (const FaultWindow& w : blackout_windows_) {
    out += "blackout " + std::to_string(w.begin.micros()) + ' ' +
           std::to_string(w.end.micros()) + ' ' + std::to_string(w.channel) +
           '\n';
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  bool saw_magic = false;
  size_t line_start = 0;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line != "faultplan v1") return std::nullopt;
      saw_magic = true;
      continue;
    }
    if (line.substr(0, 6) == "stale " || line.substr(0, 9) == "blackout ") {
      const bool is_stale = line.front() == 's';
      std::string_view rest = line.substr(is_stale ? 6 : 9);
      size_t sp1 = rest.find(' ');
      if (sp1 == std::string_view::npos) return std::nullopt;
      int64_t begin_us, end_us;
      if (!ParseI64Field(rest.substr(0, sp1), &begin_us)) return std::nullopt;
      std::string_view tail = rest.substr(sp1 + 1);
      FaultWindow w;
      if (is_stale) {
        if (!ParseI64Field(tail, &end_us)) return std::nullopt;
        w.channel = kAllChannels;
      } else {
        size_t sp2 = tail.find(' ');
        if (sp2 == std::string_view::npos) return std::nullopt;
        if (!ParseI64Field(tail.substr(0, sp2), &end_us)) return std::nullopt;
        uint64_t channel;
        if (!ParseU64Field(tail.substr(sp2 + 1), &channel)) {
          return std::nullopt;
        }
        w.channel = static_cast<uint32_t>(channel);
      }
      w.begin = SimTime::Micros(begin_us);
      w.end = SimTime::Micros(end_us);
      (is_stale ? plan.stale_windows_ : plan.blackout_windows_).push_back(w);
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    std::string_view key = line.substr(0, eq);
    std::string_view value = line.substr(eq + 1);
    FaultPlanConfig& c = plan.config_;
    bool ok = true;
    int64_t i64 = 0;
    uint64_t u64 = 0;
    if (key == "seed") {
      ok = ParseU64Field(value, &c.seed);
    } else if (key == "horizon_us") {
      ok = ParseI64Field(value, &i64);
      plan.horizon_ = SimTime::Micros(i64);
    } else if (key == "sample_dropout_prob") {
      ok = ParseF64Field(value, &c.sample_dropout_prob);
    } else if (key == "noise_spike_prob") {
      ok = ParseF64Field(value, &c.noise_spike_prob);
    } else if (key == "noise_spike_sigma_watts") {
      ok = ParseF64Field(value, &c.noise_spike_sigma_watts);
    } else if (key == "sensor_bias_watts") {
      ok = ParseF64Field(value, &c.sensor_bias_watts);
    } else if (key == "stale_windows_per_hour") {
      ok = ParseF64Field(value, &c.stale_windows_per_hour);
    } else if (key == "stale_window_mean_us") {
      ok = ParseI64Field(value, &i64);
      c.stale_window_mean = SimTime::Micros(i64);
    } else if (key == "blackouts_per_hour") {
      ok = ParseF64Field(value, &c.blackouts_per_hour);
    } else if (key == "blackout_mean_us") {
      ok = ParseI64Field(value, &i64);
      c.blackout_mean = SimTime::Micros(i64);
    } else if (key == "blackout_channels") {
      ok = ParseU64Field(value, &u64);
      c.blackout_channels = static_cast<uint32_t>(u64);
    } else if (key == "rpc_failure_prob") {
      ok = ParseF64Field(value, &c.rpc_failure_prob);
    } else if (key == "rpc_latency_mean_us") {
      ok = ParseI64Field(value, &i64);
      c.rpc_latency_mean = SimTime::Micros(i64);
    } else if (key == "rpc_max_attempts") {
      ok = ParseI64Field(value, &i64);
      c.rpc_max_attempts = static_cast<int>(i64);
    } else if (key == "rpc_backoff_base_us") {
      ok = ParseI64Field(value, &i64);
      c.rpc_backoff_base = SimTime::Micros(i64);
    } else {
      return std::nullopt;  // Unknown key: refuse rather than drop data.
    }
    if (!ok) return std::nullopt;
  }
  if (!saw_magic) return std::nullopt;
  return plan;
}

}  // namespace faults
}  // namespace ampere
