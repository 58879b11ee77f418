#include "src/telemetry/power_monitor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>

#include "src/common/check.h"
#include "src/common/span_kernels.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {
namespace {

// The reading rule of both sample passes: round half away from zero to a
// whole watt (when quantizing), then clamp negatives to 0. -0.0 is not
// negative, so a reading that rounds to -0 keeps its sign.
double FinishReading(double reading, bool quantize) {
  if (quantize) {
    reading = std::round(reading);
  }
  return reading < 0.0 ? 0.0 : reading;
}

// How many of the noise kernel's error bounds a certified whole-watt
// reading keeps from every rounding edge. 1 is enough by the bound's
// derivation; the rest is slack for the libm pair's own few-ulp error.
constexpr double kCertifyMargin = 4.0;

}  // namespace

PowerMonitor::PowerMonitor(DataCenter* dc, TimeSeriesDb* db,
                           const PowerMonitorConfig& config, Rng rng)
    : dc_(dc), db_(db), config_(config), noise_seed_(rng.NextU64()),
      latest_server_watts_(static_cast<size_t>(dc->num_servers()), 0.0),
      latest_row_watts_(static_cast<size_t>(dc->num_rows()), 0.0),
      latest_row_stamp_(static_cast<size_t>(dc->num_rows()),
                        SimTime::Micros(-1)),
      row_dark_(static_cast<size_t>(dc->num_rows()), 0),
      row_in_margin_(static_cast<size_t>(dc->num_rows()), 0),
      row_was_dark_(static_cast<size_t>(dc->num_rows()), 0) {
  AMPERE_CHECK(dc != nullptr && db != nullptr);
  AMPERE_CHECK(config.interval > SimTime());

  // Intern every series this monitor will write, once, so SampleOnce never
  // formats a name or probes the name map again. Pre-size the store first
  // so interning does not rehash (groups registered later may add a few
  // more — that is setup-time cost, not sample-time cost).
  size_t expected = static_cast<size_t>(dc_->num_rows()) + 1;  // + dc total.
  if (config_.record_servers) {
    expected += static_cast<size_t>(dc_->num_servers());
  }
  if (config_.record_racks) {
    expected += static_cast<size_t>(dc_->num_racks());
  }
  db_->Reserve(expected);
  // All names carry the (usually empty) series prefix, interned once here.
  const std::string& prefix = config_.series_prefix;
  if (config_.record_servers) {
    server_series_.reserve(static_cast<size_t>(dc_->num_servers()));
    for (int32_t s = 0; s < dc_->num_servers(); ++s) {
      server_series_.push_back(db_->Intern(prefix + ServerSeries(ServerId(s))));
    }
  }
  if (config_.record_racks) {
    rack_series_.reserve(static_cast<size_t>(dc_->num_racks()));
    for (int32_t r = 0; r < dc_->num_racks(); ++r) {
      rack_series_.push_back(db_->Intern(prefix + RackSeries(RackId(r))));
    }
  }
  row_channel_.reserve(static_cast<size_t>(dc_->num_rows()));
  row_series_.reserve(static_cast<size_t>(dc_->num_rows()));
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    row_channel_.push_back(prefix + RowSeries(RowId(r)));
    row_series_.push_back(db_->Intern(row_channel_.back()));
  }
  total_series_ = db_->Intern(prefix + kTotalSeries);
}

void PowerMonitor::RegisterGroup(const std::string& name,
                                 std::vector<ServerId> servers) {
  AMPERE_CHECK(!started_) << "groups must be registered before Start";
  AMPERE_CHECK(!framed_)
      << "groups must be registered before the first sample";
  AMPERE_CHECK(!servers.empty());
  Group group;
  group.name = name;
  group.channel = config_.series_prefix + GroupSeries(name);
  // Precompute the rows this group spans with a seen-bitmap sized by
  // num_rows: O(servers + rows), not O(servers x rows).
  std::vector<char> seen(static_cast<size_t>(dc_->num_rows()), 0);
  for (ServerId sid : servers) {
    RowId row = dc_->row_of(sid);
    char& mark = seen[static_cast<size_t>(row.index())];
    if (mark == 0) {
      mark = 1;
      group.rows.push_back(row);
    }
  }
  group.servers = std::move(servers);
  group.series = db_->Intern(group.channel);
  groups_.push_back(std::move(group));
}

void PowerMonitor::Start(SimTime first_sample) {
  AMPERE_CHECK(!started_);
  started_ = true;
  dc_->sim()->SchedulePeriodic(first_sample, config_.interval,
                               [this](SimTime t) { SampleOnce(t); });
}

void PowerMonitor::PreallocateSamples(size_t expected_samples) {
  preallocated_points_ = expected_samples;
  for (const TierFrame& tier : tier_frames_) {
    db_->ReserveRows(tier.frame, expected_samples);
  }
}

void PowerMonitor::BuildFrame() {
  framed_ = true;
  std::vector<SeriesId> members = server_series_;
  rack_column_ = members.size();
  members.insert(members.end(), rack_series_.begin(), rack_series_.end());
  row_column_ = members.size();
  members.insert(members.end(), row_series_.begin(), row_series_.end());
  total_column_ = members.size();
  members.push_back(total_series_);
  group_column_ = members.size();
  for (const Group& group : groups_) {
    members.push_back(group.series);
  }
  // Tier t spans columns [tier_begin[t], tier_begin[t + 1]).
  const size_t tier_begin[] = {0,
                               rack_column_,
                               row_column_,
                               total_column_,
                               group_column_,
                               members.size()};
  const std::span<const SeriesId> columns(members);
  for (size_t t = 0; t + 1 < std::size(tier_begin); ++t) {
    const size_t size = tier_begin[t + 1] - tier_begin[t];
    if (size == 0) {
      continue;  // Tier not recorded.
    }
    const TierFrame tier{
        db_->RegisterFrame(columns.subspan(tier_begin[t], size)),
        tier_begin[t], size};
    if (preallocated_points_ > 0) {
      db_->ReserveRows(tier.frame, preallocated_points_);
    }
    tier_frames_.push_back(tier);
  }
  frame_row_.assign(members.size(), 0.0);
  frame_absent_.assign(members.size(), 0);
}

void PowerMonitor::SampleOnce(SimTime stamp) {
  // Covers the whole ingest + aggregate pass: per-server "IPMI" reads,
  // rack/row/group rollups, and the TimeSeriesDb frame appends.
  AMPERE_SPAN(obs_domain_, "telemetry.sample");
  if (!framed_) {
    BuildFrame();
  }
  if (injector_ != nullptr && injector_->TelemetryStalled(stamp)) {
    // The aggregation pipeline is stalled: no sample lands anywhere, every
    // consumer keeps aging data. latest_sample_time_ deliberately stays old.
    ++samples_stalled_;
    obs::CounterAdd(obs_domain_, "faults.telemetry_stalls");
    AMPERE_TIMELINE(obs_domain_, stamp,
                    obs::TimelineEventType::kTelemetryStall,
                    static_cast<double>(samples_stalled_));
    return;
  }
  // Noise tick: the index of this non-stalled sample. A pure function of
  // the sample sequence, so every reading's noise key is independent of
  // faults dropping other readings.
  const uint64_t tick = samples_taken_;
  ++samples_taken_;
  obs::CounterAdd(obs_domain_, "telemetry.samples");
  latest_sample_time_ = stamp;

  // With no injector, or one that cannot touch this pass (zero per-reading
  // fault probabilities and no blackout window covers `stamp`), the servers
  // are read by the batched clean reader. In the quiescent state the
  // faulted reader performs the identical arithmetic with zero RNG draws
  // and zero fault events, so the two are byte-identical.
  const bool faulted =
      injector_ != nullptr && !injector_->TelemetryQuiescentAt(stamp);
  if (faulted) {
    ReadServersFaulted(stamp, tick);
  } else {
    ReadServersClean(tick);
  }
  Rollup(stamp, faulted);
  RecordRowTimeline(stamp, faulted);
}

void PowerMonitor::ReadServersClean(uint64_t tick) {
  // True draw + counter-based sensor noise, then (by default) watt
  // quantization. StreamKey(TickBase(noise_seed_, tick), s) ==
  // Key(noise_seed_, s, tick), so both branches read exactly what NoiseAt
  // and the faulted reader would.
  const std::span<const double> truth = dc_->server_power_soa();
  if (config_.quantize_to_watts) {
    const size_t fallbacks = ReadWholeWatts(
        truth, config_.noise_sigma_watts,
        counter_rng::TickBase(noise_seed_, tick), latest_server_watts_);
    obs::CounterAdd(obs_domain_, "telemetry.noise_fallbacks", fallbacks);
    return;
  }
  for (size_t s = 0; s < truth.size(); ++s) {
    latest_server_watts_[s] = FinishReading(truth[s] + NoiseAt(s, tick),
                                            /*quantize=*/false);
  }
}

size_t PowerMonitor::ReadWholeWatts(std::span<const double> truth,
                                    double sigma, uint64_t noise_base,
                                    std::span<double> readings) {
  AMPERE_CHECK(readings.size() == truth.size());
  const counter_rng::ApproxNormal& approx = counter_rng::ApproxNormal::Get();
  // |x - x_exact| <= |sigma| |z - z_exact| + the two roundings of x, so
  // x_exact rounds like x when x is more than `margin` plus a few ulps of x
  // from every half-integer (the ulp term also covers sigma = 0). Written
  // so that a NaN anywhere fails every test and falls back.
  const double margin =
      kCertifyMargin * std::abs(sigma) * counter_rng::kApproxNormalErrorBound;
  // Strip-mined over fixed blocks of servers, so each stage is a short
  // loop of independent iterations: the block's approximate noise, then
  // its certified readings, then the exact path for the few undecided.
  constexpr size_t kBlock = 128;  // Servers; even, so pairs never straddle.
  double z[kBlock] = {};
  uint8_t undecided[kBlock] = {};
  size_t fallbacks = 0;
  const size_t end = truth.size();
  for (size_t first = 0; first < end; first += kBlock) {
    const size_t count = std::min(kBlock, end - first);
    for (size_t k = 0; k < count; k += 2) {
      const counter_rng::NormalPair pair =
          approx.Pair(counter_rng::StreamKey(noise_base, (first + k) >> 1));
      z[k] = pair.z0;
      z[k + 1] = pair.z1;
    }
    size_t block_undecided = 0;
    for (size_t k = 0; k < count; ++k) {
      const double x = truth[first + k] + sigma * z[k];
      const double delta = margin + x * 0x1.0p-50;
      // Above 0.5 + delta, x and x_exact both exceed 0.5: the reading is
      // the integer nearest x, at least 1, with no clamp and no sign of
      // zero. It is decided when x is within 0.5 - delta of it, i.e. more
      // than delta from both neighbouring half-integers. `in_range` keeps
      // the integer conversion defined; there x - whole is exact.
      const bool in_range = x > 0.5 + delta && x < 0x1.0p52;
      const double xr = in_range ? x : 1.0;
      const double whole = static_cast<double>(static_cast<int64_t>(xr + 0.5));
      const bool decided = in_range && std::abs(xr - whole) < 0.5 - delta;
      readings[first + k] = whole;
      undecided[k] = decided ? 0 : 1;
      block_undecided += decided ? 0 : 1;
    }
    if (block_undecided == 0) {
      continue;
    }
    fallbacks += block_undecided;
    for (size_t k = 0; k < count; ++k) {
      if (undecided[k] != 0) {
        const size_t s = first + k;
        const counter_rng::NormalPair exact = counter_rng::StandardNormalPair(
            counter_rng::StreamKey(noise_base, static_cast<uint64_t>(s >> 1)));
        readings[s] = FinishReading(
            truth[s] + sigma * ((s & 1) == 0 ? exact.z0 : exact.z1),
            /*quantize=*/true);
      }
    }
  }
  return fallbacks;
}

void PowerMonitor::ReadServersFaulted(SimTime stamp, uint64_t tick) {
  // Which row feeds are dark this pass. A blacked-out row monitor returns
  // nothing: its servers' readings are not refreshed and its row cell is
  // absent until the window ends.
  bool any_dark = false;
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    const bool dark = injector_->ChannelBlackedOut(
        row_channel_[static_cast<size_t>(r)], stamp);
    row_dark_[static_cast<size_t>(r)] = dark ? 1 : 0;
    if (dark) {
      any_dark = true;
      obs::CounterAdd(obs_domain_, "faults.blackout_rows");
    }
  }
  std::fill(frame_absent_.begin(), frame_absent_.end(), 0);
  uint8_t* absent = frame_absent_.data();

  // Read every surviving server once through "IPMI". All aggregates sum
  // these readings (not the true values), as the streaming aggregation
  // pipeline would. Counter-based noise keys off (server, tick), so a
  // dropped reading consumes nothing from any stream — the next pass's
  // noise is automatically aligned with a fault-free run's.
  for (int32_t s = 0; s < dc_->num_servers(); ++s) {
    ServerId id(s);
    const size_t column = static_cast<size_t>(s);
    if (any_dark && row_dark_[static_cast<size_t>(dc_->row_of(id).index())]) {
      // The row's monitor feed is dark: no reading at all.
      if (config_.record_servers) {
        absent[column] = 1;
      }
      continue;
    }
    if (injector_->DropServerSample()) {
      // Reading never arrived; the pipeline keeps the last-known value.
      obs::CounterAdd(obs_domain_, "faults.dropped_samples");
      if (config_.record_servers) {
        absent[column] = 1;
      }
      continue;
    }
    latest_server_watts_[id.index()] = FinishReading(
        dc_->server_power_watts(id) + NoiseAt(static_cast<size_t>(s), tick) +
            injector_->SensorAdjustWatts(),
        config_.quantize_to_watts);
  }
}

void PowerMonitor::Rollup(SimTime stamp, bool faulted) {
  // One frame row in fixed column order: servers, racks, rows, total,
  // groups (one sub-span per tier frame). A rack's or row's servers occupy
  // one contiguous index range, and every sum uses SumSequential — the
  // strict left-to-right order the committed goldens pin (see
  // span_kernels.h). A feed that returned nothing keeps its last-known
  // value in its cell (it is marked absent) and in the caches.
  const double* readings = latest_server_watts_.data();
  double* row = frame_row_.data();
  std::copy(readings, readings + server_series_.size(), row);
  if (config_.record_racks) {
    for (int32_t r = 0; r < dc_->num_racks(); ++r) {
      const DataCenter::IndexRange range = dc_->server_range_of_rack(RackId(r));
      row[rack_column_ + static_cast<size_t>(r)] =
          span_kernels::SumSequential(readings + range.begin, range.size());
    }
  }
  double total = 0.0;
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    const size_t index = static_cast<size_t>(r);
    if (faulted && row_dark_[index] != 0) {
      // A dark row's last-known aggregate (stale stamp) still folds into
      // the dc total, as a last-value-carried-forward rollup would.
      frame_absent_[row_column_ + index] = 1;
    } else {
      const DataCenter::IndexRange range = dc_->server_range_of_row(RowId(r));
      latest_row_watts_[index] =
          span_kernels::SumSequential(readings + range.begin, range.size());
      latest_row_stamp_[index] = stamp;
    }
    total += latest_row_watts_[index];
    row[row_column_ + index] = latest_row_watts_[index];
  }
  row[total_column_] = total;
  for (size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    if (faulted && injector_->ChannelBlackedOut(group.channel, stamp)) {
      // The group's own virtual feed is dark; value and stamp stay put.
      frame_absent_[group_column_ + g] = 1;
    } else {
      double sum = 0.0;
      for (ServerId sid : group.servers) {
        sum += readings[sid.index()];
      }
      group.latest_watts = sum;
      group.latest_stamp = stamp;
    }
    row[group_column_ + g] = group.latest_watts;
  }
  AppendTierFrames(stamp, faulted ? frame_absent_.data() : nullptr);
}

void PowerMonitor::AppendTierFrames(SimTime stamp, const uint8_t* absent) {
  const std::span<const double> row(frame_row_);
  for (const TierFrame& tier : tier_frames_) {
    db_->AppendFrame(tier.frame, stamp, row.subspan(tier.begin, tier.size),
                     absent == nullptr ? nullptr : absent + tier.begin);
  }
}

void PowerMonitor::RecordRowTimeline(SimTime stamp, bool faulted) {
  if (obs::CurrentRecorder() == nullptr) {
    return;
  }
  const size_t num_rows = static_cast<size_t>(dc_->num_rows());
  const double fraction = config_.breaker_margin_fraction;
  for (size_t r = 0; r < num_rows; ++r) {
    const RowId row_id(static_cast<int32_t>(r));
    // Fault-window edges: a row feed going dark / recovering. Clean passes
    // refresh every feed, so any previously-dark row has recovered.
    const bool dark = faulted && row_dark_[r] != 0;
    if (dark != (row_was_dark_[r] != 0)) {
      AMPERE_TIMELINE(obs_domain_, stamp,
                      dark ? obs::TimelineEventType::kFaultWindowBegin
                           : obs::TimelineEventType::kFaultWindowEnd,
                      0.0, 0.0, static_cast<uint64_t>(r));
      row_was_dark_[r] = dark ? 1 : 0;
    }
    // Breaker-margin crossings on the sampled (noisy) row draw — the same
    // value every consumer of this monitor sees. Dark rows keep their
    // last-known margin state: a stale value says nothing new.
    if (dark) continue;
    const double budget = dc_->row_budget_watts(row_id);
    if (budget <= 0.0) continue;
    const double watts = latest_row_watts_[r];
    const bool in_margin = watts >= fraction * budget;
    if (in_margin != (row_in_margin_[r] != 0)) {
      AMPERE_TIMELINE(obs_domain_, stamp,
                      in_margin ? obs::TimelineEventType::kBreakerMarginEnter
                                : obs::TimelineEventType::kBreakerMarginExit,
                      watts, budget, static_cast<uint64_t>(r));
      row_in_margin_[r] = in_margin ? 1 : 0;
    }
  }
}

bool PowerMonitor::FeedBlackedOut(std::string_view series,
                                  SimTime now) const {
  return injector_ != nullptr && injector_->ChannelBlackedOut(series, now);
}

const PowerMonitor::Group& PowerMonitor::FindGroupOrDie(
    const std::string& name) const {
  for (const Group& group : groups_) {
    if (group.name == name) {
      return group;
    }
  }
  AMPERE_CHECK(false) << "unknown group " << name;
  __builtin_unreachable();
}

PowerReading PowerMonitor::LatestRowReading(RowId id, SimTime now) const {
  PowerReading reading;
  reading.watts = latest_row_watts_[id.index()];
  reading.stamp = latest_row_stamp_[id.index()];
  reading.blacked_out =
      FeedBlackedOut(row_channel_[static_cast<size_t>(id.index())], now);
  return reading;
}

PowerReading PowerMonitor::LatestGroupReading(const std::string& name,
                                              SimTime now) const {
  const Group& group = FindGroupOrDie(name);
  PowerReading reading;
  reading.watts = group.latest_watts;
  reading.stamp = group.latest_stamp;
  reading.blacked_out = FeedBlackedOut(group.channel, now);
  if (!reading.blacked_out && injector_ != nullptr) {
    // A group aggregate is only as fresh as its members' row feeds: if any
    // member row is dark the sum silently mixes stale per-server values, so
    // surface it as a blackout and let the consumer skip rather than guess.
    for (RowId row : group.rows) {
      if (FeedBlackedOut(row_channel_[static_cast<size_t>(row.index())],
                         now)) {
        reading.blacked_out = true;
        break;
      }
    }
  }
  return reading;
}

double PowerMonitor::LatestGroupWatts(const std::string& name) const {
  return FindGroupOrDie(name).latest_watts;
}

std::string PowerMonitor::ServerSeries(ServerId id) {
  return "server/" + std::to_string(id.value()) + "/power";
}
std::string PowerMonitor::RackSeries(RackId id) {
  return "rack/" + std::to_string(id.value()) + "/power";
}
std::string PowerMonitor::RowSeries(RowId id) {
  return "row/" + std::to_string(id.value()) + "/power";
}
std::string PowerMonitor::GroupSeries(const std::string& name) {
  return "group/" + name + "/power";
}

}  // namespace ampere
