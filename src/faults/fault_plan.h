// Deterministic fault plans for chaos-style robustness runs.
//
// Production telemetry is not the clean feed the simulator has offered so
// far: IPMI samples drop, the streaming aggregation pipeline stalls, BMC
// sensors spike or drift, whole-row monitors go dark during maintenance,
// and the scheduler's freeze/unfreeze RPCs fail or lag. A FaultPlan is a
// *declarative, seeded* description of exactly which of those faults a run
// will experience: the window-shaped faults (pipeline stalls, per-channel
// monitor blackouts) are pre-generated into an explicit schedule at
// construction time, and the per-event faults (sample dropout, noise
// spikes, RPC failures) are described by probabilities that the runtime
// FaultInjector draws against with its own forked RNG streams.
//
// Determinism contract: Generate(config, horizon) is a pure function of
// (config, horizon) — the same seed always yields the identical fault
// schedule — and plans serialize losslessly (Serialize/Parse round-trip),
// so a production incident's fault profile can be replayed bit-for-bit.

#ifndef SRC_FAULTS_FAULT_PLAN_H_
#define SRC_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"

namespace ampere {
namespace faults {

// A half-open [begin, end) fault window. `channel` scopes per-channel
// faults (monitor blackouts): a window applies to the channel whose stable
// hash maps onto it. Window kinds that are global (telemetry stalls) keep
// channel == kAllChannels.
struct FaultWindow {
  SimTime begin;
  SimTime end;
  uint32_t channel = 0;

  bool Contains(SimTime t) const { return t >= begin && t < end; }
  friend bool operator==(const FaultWindow&, const FaultWindow&) = default;
};

inline constexpr uint32_t kAllChannels = 0xffffffffu;

struct FaultPlanConfig {
  // Seeds the window-schedule generation and the injector's per-event
  // draw streams. Independent from the simulation seed so the same fault
  // profile can be replayed against different workloads.
  uint64_t seed = 1;

  // --- Telemetry faults ---
  // Probability that one per-server reading is dropped in one sample pass
  // (the monitor keeps the server's last-known reading, stale-tagged).
  double sample_dropout_prob = 0.0;
  // Probability that a reading that did arrive carries a noise spike of
  // sigma `noise_spike_sigma_watts` on top of the regular sensor noise.
  double noise_spike_prob = 0.0;
  double noise_spike_sigma_watts = 0.0;
  // Constant per-reading sensor bias (miscalibrated BMC firmware), watts.
  double sensor_bias_watts = 0.0;
  // Whole-pipeline stale windows: the aggregation pipeline stalls and no
  // sample lands at all (every consumer sees aging data). Windows arrive at
  // `stale_windows_per_hour` with exponential mean `stale_window_mean`.
  double stale_windows_per_hour = 0.0;
  SimTime stale_window_mean = SimTime::Minutes(3);

  // --- Per-channel monitor blackouts ---
  // A blacked-out channel (a row's or group's monitor feed) returns nothing:
  // readings under it are not refreshed for the whole window. Windows arrive
  // at `blackouts_per_hour`, each hitting one of `blackout_channels`
  // hash-buckets, with exponential mean `blackout_mean`.
  double blackouts_per_hour = 0.0;
  SimTime blackout_mean = SimTime::Minutes(10);
  uint32_t blackout_channels = 4;

  // --- Scheduler RPC faults ---
  // Probability one freeze/unfreeze RPC attempt fails.
  double rpc_failure_prob = 0.0;
  // Simulated per-attempt RPC latency (exponential with this mean) and the
  // retry/backoff policy the controller applies: up to `rpc_max_attempts`
  // attempts, backing off `rpc_backoff_base * 2^k` after the k-th failure.
  // Latency and backoff are accounted (journal + metrics), not injected
  // into the event queue — the control cadence is 1/min, so sub-second RPC
  // lag never reorders decisions, it only consumes tick budget.
  SimTime rpc_latency_mean = SimTime::Millis(5);
  int rpc_max_attempts = 3;
  SimTime rpc_backoff_base = SimTime::Millis(10);

  // True if any fault dimension is active.
  bool any() const {
    return sample_dropout_prob > 0.0 || noise_spike_prob > 0.0 ||
           sensor_bias_watts != 0.0 || stale_windows_per_hour > 0.0 ||
           blackouts_per_hour > 0.0 || rpc_failure_prob > 0.0;
  }

  friend bool operator==(const FaultPlanConfig&,
                         const FaultPlanConfig&) = default;
};

class FaultPlan {
 public:
  // An empty plan: no faults ever fire.
  FaultPlan() = default;

  // Pre-generates the window schedule over [0, horizon) from config.seed.
  // Pure function of its arguments: same (config, horizon) -> identical
  // plan, bit for bit.
  static FaultPlan Generate(const FaultPlanConfig& config, SimTime horizon);

  // Sorts by (channel, begin) and coalesces overlapping or touching windows
  // of the same channel. Exposed for tests.
  static std::vector<FaultWindow> Normalize(std::vector<FaultWindow> windows);

  const FaultPlanConfig& config() const { return config_; }
  SimTime horizon() const { return horizon_; }
  const std::vector<FaultWindow>& stale_windows() const {
    return stale_windows_;
  }
  const std::vector<FaultWindow>& blackout_windows() const {
    return blackout_windows_;
  }

  // Is the telemetry pipeline stalled at `t`?
  bool InStaleWindow(SimTime t) const;
  // Is channel index `channel` blacked out at `t`?
  bool InBlackout(uint32_t channel, SimTime t) const;
  // Stable (platform-independent) FNV-1a channel index for a named feed.
  static uint32_t ChannelIndex(std::string_view name, uint32_t num_channels);
  // Convenience: blackout lookup by feed name.
  bool ChannelBlackedOut(std::string_view name, SimTime t) const {
    if (blackout_windows_.empty()) return false;
    return InBlackout(ChannelIndex(name, config_.blackout_channels), t);
  }
  // True if *any* channel's blackout window contains `t` — the cheap
  // all-clear the sampler needs to prove a pass cannot observe a blackout
  // without hashing every feed name.
  bool AnyBlackoutAt(SimTime t) const {
    for (const FaultWindow& w : blackout_windows_) {
      if (w.Contains(t)) return true;
    }
    return false;
  }

  // Lossless text serialization (key=value lines + window lines).
  std::string Serialize() const;
  static std::optional<FaultPlan> Parse(std::string_view text);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  FaultPlanConfig config_;
  SimTime horizon_;
  std::vector<FaultWindow> stale_windows_;     // channel == kAllChannels.
  std::vector<FaultWindow> blackout_windows_;  // channel in [0, channels).
};

}  // namespace faults
}  // namespace ampere

#endif  // SRC_FAULTS_FAULT_PLAN_H_
