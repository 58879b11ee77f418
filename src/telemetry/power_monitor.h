// Per-minute power telemetry.
//
// Models the paper's in-house power monitor (§3.3): every minute it reads
// each server's draw through IPMI (with measurement noise and watt-level
// quantization), aggregates to rack/row/data-center level with the streaming
// pipeline, and persists the aggregates in the time-series database. The
// monitor itself is stateless across ticks apart from caching the latest
// readings (the paper's monitor is "stateless for easy recovery" — all
// history lives in the database).
//
// Virtual groups support the controlled-experiment methodology of §4.1.2:
// a named set of servers (e.g. "the experiment group": servers with even
// ids) gets its own aggregated series, exactly as the real evaluation
// aggregated the two parity-split halves of one row.
//
// Hot-path note: every series this monitor writes is interned into the
// TimeSeriesDb at construction / RegisterGroup time and becomes one column
// of its tier's frame (servers, racks, rows, total, groups; built at the
// first SampleOnce), so a sample pass is one row per tier frame: the
// steady-state SampleOnce never hashes a string, never formats a name, and
// (after PreallocateSamples) never allocates. One frame per tier lets each
// tier keep its own cell width: whole-watt server readings and rack sums
// stay 16-bit while row and DC sums past 65,535 W widen to float.
//
// Noise is counter-based: each per-server reading's measurement noise is a
// pure function of (noise seed, server id, sample tick) — see
// counter_rng in common/rng.h. A reading is therefore independent of how
// many other readings were produced before it, so a dropped reading in a
// faulted pass leaves every later reading's noise unchanged. The clean
// pass's whole-watt readings take the noise from a table-interpolated
// Box-Muller and fall back to the exact libm pair only where its error
// bound could move the rounding (ReadWholeWatts), so they equal the exact
// readings bit for bit. Frame columns
// are in fixed (server, rack, row, total, group) order; a faulted pass
// marks a dropped or dark reading's cell absent instead of appending it.

#ifndef SRC_TELEMETRY_POWER_MONITOR_H_
#define SRC_TELEMETRY_POWER_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/common/rng.h"
#include "src/faults/fault_injector.h"
#include "src/telemetry/timeseries_db.h"

namespace ampere {

// A stale-tagged power reading. Production telemetry is not guaranteed
// fresh: the pipeline stalls, feeds black out, readings drop. Consumers that
// care about safety (the controller) read these instead of the bare watt
// accessors and decide how much to trust an aging value.
struct PowerReading {
  double watts = 0.0;
  // When the value was last actually refreshed; negative = never sampled.
  SimTime stamp = SimTime::Micros(-1);
  // True if the feed is inside a blackout window *now* (the value cannot be
  // refreshed until the window ends) or a member row's feed is dark.
  bool blacked_out = false;

  bool valid() const { return stamp >= SimTime(); }
  SimTime Age(SimTime now) const {
    return valid() ? now - stamp : SimTime::Max();
  }
};

struct PowerMonitorConfig {
  SimTime interval = SimTime::Minutes(1);
  // Per-server Gaussian measurement noise (IPMI readings are not exact).
  double noise_sigma_watts = 1.0;
  // Quantize per-server readings to whole watts like BMC firmware does.
  bool quantize_to_watts = true;
  // Which per-server and rack series to persist; row and DC totals always
  // are.
  bool record_servers = false;
  bool record_racks = true;
  // Prepended to every series (and fault-channel) name this monitor writes,
  // e.g. "campus/dc2/". Empty (the default) keeps the historical single-DC
  // names bit-identical. In a campus, per-DC prefixes keep the monitors'
  // series disjoint in one shared TimeSeriesDb and give each DC's feeds
  // independent blackout channel hashes.
  std::string series_prefix;
  // Flight-recorder threshold: a row whose sampled draw crosses this
  // fraction of its breaker budget emits a breaker_margin_enter/exit
  // timeline event pair. Observation-only (the breaker itself still trips
  // at its own tolerance); only evaluated while a recorder is installed.
  double breaker_margin_fraction = 0.95;
};

class PowerMonitor {
 public:
  // `dc`, `db`, and the simulation behind them must outlive the monitor.
  // Interns every topology series (per config flags) into `db` up front.
  // `rng` contributes exactly one draw: the seed of the counter-based noise
  // streams (so distinct monitor forks still get distinct noise).
  PowerMonitor(DataCenter* dc, TimeSeriesDb* db, const PowerMonitorConfig& config,
               Rng rng);

  // Adds a virtual aggregation group; must be called before Start and
  // before the first SampleOnce (which fixes the frames' columns).
  void RegisterGroup(const std::string& name, std::vector<ServerId> servers);

  // Attaches a fault injector (may be null to detach). Sampling then honors
  // the injector's telemetry faults: whole-pipeline stalls skip the sample
  // pass, dropped per-server readings keep their last-known value, readings
  // that arrive may carry bias/spikes, and blacked-out row/group feeds are
  // not refreshed. With no injector attached behavior is bit-identical to
  // the fault-free monitor. `injector` must outlive the monitor.
  void AttachFaultInjector(faults::FaultInjector* injector) {
    injector_ = injector;
  }

  // Begins sampling at `first_sample`, then every interval.
  void Start(SimTime first_sample);
  SimTime interval() const { return config_.interval; }

  // Metrics/timeline domain for this monitor's instrumentation ("dc3/" in a
  // campus; root, 0, standalone). Observation-only.
  void SetObsDomain(obs::DomainId domain) { obs_domain_ = domain; }
  obs::DomainId obs_domain() const { return obs_domain_; }

  // Capacity hint: reserves `expected_samples` rows of each of this
  // monitor's tier frames in the TimeSeriesDb (now, or when the first
  // sample builds them), so the steady-state sample path touches no
  // allocator. Purely a reservation — sampling past the hint still works
  // (amortized growth).
  void PreallocateSamples(size_t expected_samples);

  // Takes one sample immediately (also used by Start's periodic task).
  void SampleOnce(SimTime stamp);

  // Latest noisy readings, available after the first sample.
  double LatestServerWatts(ServerId id) const {
    return latest_server_watts_[id.index()];
  }
  double LatestRowWatts(RowId id) const { return latest_row_watts_[id.index()]; }
  double LatestGroupWatts(const std::string& name) const;
  SimTime LatestSampleTime() const { return latest_sample_time_; }
  uint64_t samples_taken() const { return samples_taken_; }
  uint64_t samples_stalled() const { return samples_stalled_; }

  // Stale-tagged reads for fault-aware consumers. `now` is the caller's
  // current time, used to evaluate blackout windows; the returned stamp is
  // when the value last refreshed. Fault-free runs always return fresh,
  // non-blacked readings, so callers can adopt this API unconditionally.
  PowerReading LatestRowReading(RowId id, SimTime now) const;
  PowerReading LatestGroupReading(const std::string& name, SimTime now) const;

  // The clean pass's whole-watt readings: readings[s] = the reading of
  // truth[s] + sigma * z_s rounded half away from zero and clamped at 0
  // (a -0.0 survives the clamp), where z_s is lane s & 1 of
  // StandardNormalPair(StreamKey(noise_base, s / 2)). Bit-identical to that
  // exact rule for every input. Each reading is first taken from
  // ApproxNormal; it stands only if x = truth + sigma * z_approx lies more
  // than 4 |sigma| kApproxNormalErrorBound plus a few ulps of x from every
  // half-integer and above the band around 0 where the clamp and the sign
  // of zero decide. Otherwise (and whenever x is not finite) the reading is
  // computed with the exact pair. Returns how many were. `readings` must be
  // as long as `truth`.
  static size_t ReadWholeWatts(std::span<const double> truth, double sigma,
                               uint64_t noise_base,
                               std::span<double> readings);

  // Canonical series names.
  static std::string ServerSeries(ServerId id);
  static std::string RackSeries(RackId id);
  static std::string RowSeries(RowId id);
  static std::string GroupSeries(const std::string& name);
  static constexpr const char* kTotalSeries = "dc/power";

 private:
  struct Group {
    std::string name;
    std::string channel;  // GroupSeries(name), precomputed once.
    std::vector<ServerId> servers;
    // Rows the group's servers span: a group reading is only as fresh as
    // its members' row feeds, so blackout checks consult both.
    std::vector<RowId> rows;
    SeriesId series;
    double latest_watts = 0.0;
    SimTime latest_stamp = SimTime::Micros(-1);
  };

  // True if the named feed's channel is dark at `now` (no injector => never).
  bool FeedBlackedOut(std::string_view series, SimTime now) const;
  const Group& FindGroupOrDie(const std::string& name) const;

  // Measurement noise for one server at one sample tick: sigma * z where z
  // is the counter-based standard normal for (noise_seed_, server, tick).
  // Servers share Box-Muller pairs two-by-two (key from server/2, lane from
  // server&1); this helper evaluates the pair and picks the lane. The clean
  // pass's whole-watt readings equal those NoiseAt gives (ReadWholeWatts).
  double NoiseAt(size_t server, uint64_t tick) const {
    const uint64_t key = counter_rng::Key(
        noise_seed_, static_cast<uint64_t>(server >> 1), tick);
    const counter_rng::NormalPair pair = counter_rng::StandardNormalPair(key);
    return config_.noise_sigma_watts *
           ((server & 1) == 0 ? pair.z0 : pair.z1);
  }

  // Lays out the frame row with every recorded series in fixed (server,
  // rack, row, total, group) order and registers one frame per recorded
  // tier over its sub-span, each reserved to the last PreallocateSamples
  // count. Called by the first SampleOnce.
  void BuildFrame();
  // Appends the pass's frame row, one sub-span per tier frame; `absent`
  // (faulted passes only) marks the row's absent cells.
  void AppendTierFrames(SimTime stamp, const uint8_t* absent);
  // Noisy readings for every server into latest_server_watts_ (no
  // injector, or a quiescent one): ReadWholeWatts when quantized, the exact
  // NoiseAt per server otherwise.
  void ReadServersClean(uint64_t tick);
  // Fault-aware reading (the injector can interfere this tick): marks the
  // dark rows in row_dark_, then reads each server of a lit row unless the
  // injector drops it, with its sensor adjustment; a server not read keeps
  // its last value and, when recorded, is marked absent in frame_absent_.
  void ReadServersFaulted(SimTime stamp, uint64_t tick);
  // Sums the pass's readings into the frame row (racks, rows, total,
  // groups) and appends it. When `faulted`, a dark row or group keeps its
  // last value and is marked absent.
  void Rollup(SimTime stamp, bool faulted);
  // Flight-recorder edge detection over per-row state, run at the end of
  // every sample pass: breaker-margin crossings (latest row draw vs
  // breaker_margin_fraction x row budget) and fault-window begin/end (row
  // feed went dark / recovered; clean passes see every feed lit). No-op —
  // a single null check — unless a recorder is installed on this thread.
  void RecordRowTimeline(SimTime stamp, bool faulted);

  DataCenter* dc_;
  TimeSeriesDb* db_;
  PowerMonitorConfig config_;
  // Seed of the counter-based noise streams (one draw from the ctor Rng).
  uint64_t noise_seed_ = 0;
  faults::FaultInjector* injector_ = nullptr;
  std::vector<Group> groups_;
  // Interned handles, filled at construction per the config's record flags
  // (empty vectors when a tier is not recorded).
  std::vector<SeriesId> server_series_;
  std::vector<SeriesId> rack_series_;
  std::vector<SeriesId> row_series_;
  SeriesId total_series_;
  // Where each tier's columns start in the frame row (servers start at
  // column 0), and one frame per recorded tier over its columns
  // [begin, begin + size).
  struct TierFrame {
    FrameId frame;
    size_t begin = 0;
    size_t size = 0;
  };
  bool framed_ = false;
  std::vector<TierFrame> tier_frames_;
  size_t rack_column_ = 0;
  size_t row_column_ = 0;
  size_t total_column_ = 0;
  size_t group_column_ = 0;
  // Reused frame row of every tier and its absent-cell marks (faulted
  // passes only).
  std::vector<double> frame_row_;
  std::vector<uint8_t> frame_absent_;
  // Precomputed blackout channel names ("row/N/power"), so fault checks do
  // not re-format per pass.
  std::vector<std::string> row_channel_;
  std::vector<double> latest_server_watts_;
  std::vector<double> latest_row_watts_;
  // Per-feed refresh stamps; negative = never refreshed.
  std::vector<SimTime> latest_row_stamp_;
  // The faulted pass's dark-row marks (written by ReadServersFaulted, read
  // only in faulted passes); sized at construction so it never allocates.
  std::vector<char> row_dark_;
  // Flight-recorder edge state (see RecordRowTimeline): whether each row was
  // inside the breaker margin / dark at the last recorded pass.
  std::vector<char> row_in_margin_;
  std::vector<char> row_was_dark_;
  obs::DomainId obs_domain_ = 0;
  // Row count from the last PreallocateSamples, reserved when the first
  // sample builds the tier frames.
  size_t preallocated_points_ = 0;
  SimTime latest_sample_time_;
  uint64_t samples_taken_ = 0;
  uint64_t samples_stalled_ = 0;
  bool started_ = false;
};

}  // namespace ampere

#endif  // SRC_TELEMETRY_POWER_MONITOR_H_
