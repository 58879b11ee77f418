#include "src/telemetry/power_monitor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/span_kernels.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {

PowerMonitor::PowerMonitor(DataCenter* dc, TimeSeriesDb* db,
                           const PowerMonitorConfig& config, Rng rng)
    : dc_(dc), db_(db), config_(config), noise_seed_(rng.NextU64()),
      latest_server_watts_(static_cast<size_t>(dc->num_servers()), 0.0),
      latest_row_watts_(static_cast<size_t>(dc->num_rows()), 0.0),
      latest_row_stamp_(static_cast<size_t>(dc->num_rows()),
                        SimTime::Micros(-1)),
      row_in_margin_(static_cast<size_t>(dc->num_rows()), 0),
      row_was_dark_(static_cast<size_t>(dc->num_rows()), 0) {
  AMPERE_CHECK(dc != nullptr && db != nullptr);
  AMPERE_CHECK(config.interval > SimTime());

  // Intern every series this monitor will write, once, so SampleOnce never
  // formats a name or probes the name map again. Pre-size the store first
  // so interning does not rehash (groups registered later may add a few
  // more — that is setup-time cost, not sample-time cost).
  size_t expected = 1;  // dc total.
  if (config_.record_servers) {
    expected += static_cast<size_t>(dc_->num_servers());
  }
  if (config_.record_racks) {
    expected += static_cast<size_t>(dc_->num_racks());
  }
  if (config_.record_rows) {
    expected += static_cast<size_t>(dc_->num_rows());
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
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    row_channel_.push_back(prefix + RowSeries(RowId(r)));
  }
  if (config_.record_rows) {
    row_series_.reserve(static_cast<size_t>(dc_->num_rows()));
    for (int32_t r = 0; r < dc_->num_rows(); ++r) {
      row_series_.push_back(db_->Intern(row_channel_[static_cast<size_t>(r)]));
    }
  }
  if (config_.record_total) {
    total_series_ = db_->Intern(prefix + kTotalSeries);
  }
}

void PowerMonitor::RegisterGroup(const std::string& name,
                                 std::vector<ServerId> servers) {
  AMPERE_CHECK(!started_) << "groups must be registered before Start";
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
  if (preallocated_points_ > 0) {
    // PreallocateSamples already ran; reserve this series to match so the
    // group's steady-state appends stay allocation-free too (previously a
    // group registered after the prealloc pass kept growing its vector).
    db_->ReservePoints(group.series, preallocated_points_);
  }
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
  for (SeriesId id : server_series_) {
    db_->ReservePoints(id, expected_samples);
  }
  for (SeriesId id : rack_series_) {
    db_->ReservePoints(id, expected_samples);
  }
  for (SeriesId id : row_series_) {
    db_->ReservePoints(id, expected_samples);
  }
  if (total_series_.valid()) {
    db_->ReservePoints(total_series_, expected_samples);
  }
  for (const Group& group : groups_) {
    db_->ReservePoints(group.series, expected_samples);
  }
  row_dark_.reserve(static_cast<size_t>(dc_->num_rows()));
}

void PowerMonitor::SampleOnce(SimTime stamp) {
  AMPERE_METRICS_DOMAIN(obs_domain_);
  // Covers the whole ingest + aggregate pass: per-server "IPMI" reads,
  // rack/row/group rollups, and the TimeSeriesDb appends.
  AMPERE_SPAN("telemetry.sample");
  if (injector_ != nullptr && injector_->TelemetryStalled(stamp)) {
    // The aggregation pipeline is stalled: no sample lands anywhere, every
    // consumer keeps aging data. latest_sample_time_ deliberately stays old.
    ++samples_stalled_;
    AMPERE_COUNTER_ADD("faults.telemetry_stalls", 1);
    AMPERE_TIMELINE_D(obs_domain_, stamp,
                      obs::TimelineEventType::kTelemetryStall,
                      static_cast<double>(samples_stalled_));
    return;
  }
  // Noise tick: the index of this non-stalled sample. A pure function of
  // the sample sequence, so every reading's noise key is independent of
  // faults dropping other readings.
  const uint64_t tick = samples_taken_;
  ++samples_taken_;
  AMPERE_COUNTER_ADD("telemetry.samples", 1);
  latest_sample_time_ = stamp;

  if (injector_ == nullptr || injector_->TelemetryQuiescentAt(stamp)) {
    // No injector, or the injector cannot touch this pass (zero per-reading
    // fault probabilities and no blackout window covers `stamp`): take the
    // batched clean path. In the quiescent state the faulted pass performs
    // the identical arithmetic with zero RNG draws and zero fault events,
    // so the two are byte-identical.
    SampleCleanPass(stamp, tick);
  } else {
    SampleFaultedPass(stamp, tick);
  }
}

void PowerMonitor::ReadServersClean(uint64_t tick) {
  // True draw + counter-based sensor noise, then watt quantization. The
  // batched kernel evaluates one Box-Muller per two servers (the same pair
  // NoiseAt would compute for either of them), so the values are
  // bit-identical to the faulted pass's per-server NoiseAt.
  const size_t end = static_cast<size_t>(dc_->num_servers());
  std::span<const double> truth = dc_->server_power_soa();
  const double sigma = config_.noise_sigma_watts;
  const bool quantize = config_.quantize_to_watts;
  // Hoist the loop-invariant (seed, tick) half of the key derivation; the
  // per-pair remainder is one StreamKey mix. StreamKey(base, s) ==
  // Key(noise_seed_, s, tick), so these values match NoiseAt exactly.
  const uint64_t base = counter_rng::TickBase(noise_seed_, tick);
  auto finish = [quantize](double reading) {
    if (quantize) {
      reading = std::round(reading);
    }
    return reading < 0.0 ? 0.0 : reading;
  };
  // Whole spans of noise from the batched kernel, then a flat
  // add/quantize/store sweep over the same block. The staging buffer is a
  // fixed stack block, so the pass stays allocation-free.
  constexpr size_t kNoisePairs = 128;
  double z[2 * kNoisePairs];
  const double* __restrict truth_p = truth.data();
  double* __restrict latest_p = latest_server_watts_.data();
  size_t i = 0;
  while (i + 1 < end) {
    const size_t pairs = std::min(kNoisePairs, (end - i) / 2);
    counter_rng::StandardNormalSpan(base, static_cast<uint64_t>(i >> 1),
                                    pairs, z);
    const size_t count = 2 * pairs;
    for (size_t k = 0; k < count; ++k) {
      latest_p[i + k] = finish(truth_p[i + k] + sigma * z[k]);
    }
    i += count;
  }
  if (i < end) {
    // Odd server count: the last server is the z0 lane of a half pair.
    latest_server_watts_[i] = finish(truth[i] + NoiseAt(i, tick));
  }
}

void PowerMonitor::SampleCleanPass(SimTime stamp, uint64_t tick) {
  ReadServersClean(tick);

  // Appends in fixed order: servers, racks, rows, total, groups. A rack's
  // or row's servers occupy one contiguous index range, and every sum uses
  // SumSequential — the strict left-to-right order the committed goldens
  // pin (see span_kernels.h).
  const double* readings = latest_server_watts_.data();
  if (config_.record_servers) {
    const size_t num_servers = static_cast<size_t>(dc_->num_servers());
    for (size_t s = 0; s < num_servers; ++s) {
      db_->Append(server_series_[s], stamp, readings[s]);
    }
  }
  if (config_.record_racks) {
    for (int32_t r = 0; r < dc_->num_racks(); ++r) {
      const DataCenter::IndexRange range = dc_->server_range_of_rack(RackId(r));
      db_->Append(rack_series_[static_cast<size_t>(r)], stamp,
                  span_kernels::SumSequential(readings + range.begin,
                                              range.size()));
    }
  }
  double total = 0.0;
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    const DataCenter::IndexRange range = dc_->server_range_of_row(RowId(r));
    const double sum =
        span_kernels::SumSequential(readings + range.begin, range.size());
    latest_row_watts_[static_cast<size_t>(r)] = sum;
    latest_row_stamp_[static_cast<size_t>(r)] = stamp;
    total += sum;
    if (config_.record_rows) {
      db_->Append(row_series_[static_cast<size_t>(r)], stamp, sum);
    }
  }
  if (config_.record_total) {
    db_->Append(total_series_, stamp, total);
  }
  for (Group& group : groups_) {
    double sum = 0.0;
    for (ServerId sid : group.servers) {
      sum += readings[sid.index()];
    }
    group.latest_watts = sum;
    group.latest_stamp = stamp;
    db_->Append(group.series, stamp, sum);
  }

  RecordRowTimeline(stamp, /*faulted=*/false);
}

void PowerMonitor::SampleFaultedPass(SimTime stamp, uint64_t tick) {
  // Which row feeds are dark this pass. A blacked-out row monitor returns
  // nothing: its servers' readings are not refreshed and no row point is
  // appended until the window ends.
  bool any_dark = false;
  row_dark_.assign(static_cast<size_t>(dc_->num_rows()), 0);
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    if (injector_->ChannelBlackedOut(row_channel_[static_cast<size_t>(r)],
                                     stamp)) {
      row_dark_[static_cast<size_t>(r)] = 1;
      any_dark = true;
      AMPERE_COUNTER_ADD("faults.blackout_rows", 1);
    }
  }
  auto dark_row = [&](RowId id) {
    return any_dark && row_dark_[static_cast<size_t>(id.index())] != 0;
  };

  // Read every surviving server once through "IPMI". All aggregates sum
  // these readings (not the true values), as the streaming aggregation
  // pipeline would. Counter-based noise keys off (server, tick), so a
  // dropped reading consumes nothing from any stream — the next pass's
  // noise is automatically aligned with a fault-free run's.
  for (int32_t s = 0; s < dc_->num_servers(); ++s) {
    ServerId id(s);
    if (dark_row(dc_->row_of(id))) {
      // The row's monitor feed is dark: no reading at all.
      continue;
    }
    if (injector_->DropServerSample()) {
      // Reading never arrived; the pipeline keeps the last-known value.
      AMPERE_COUNTER_ADD("faults.dropped_samples", 1);
      continue;
    }
    double reading = dc_->server_power_watts(id) +
                     NoiseAt(static_cast<size_t>(s), tick) +
                     injector_->SensorAdjustWatts();
    if (config_.quantize_to_watts) {
      reading = std::round(reading);
    }
    if (reading < 0.0) {
      reading = 0.0;
    }
    latest_server_watts_[id.index()] = reading;
    if (config_.record_servers) {
      db_->Append(server_series_[static_cast<size_t>(s)], stamp, reading);
    }
  }

  if (config_.record_racks) {
    for (int32_t r = 0; r < dc_->num_racks(); ++r) {
      RackId id(r);
      double sum = 0.0;
      for (ServerId sid : dc_->servers_in_rack(id)) {
        sum += latest_server_watts_[sid.index()];
      }
      db_->Append(rack_series_[static_cast<size_t>(r)], stamp, sum);
    }
  }

  double total = 0.0;
  for (int32_t r = 0; r < dc_->num_rows(); ++r) {
    RowId id(r);
    if (dark_row(id)) {
      // Feed returned nothing: keep the last-known aggregate (stale stamp)
      // and fold it into the dc total, as a last-value-carried-forward
      // streaming rollup would.
      total += latest_row_watts_[id.index()];
      continue;
    }
    double sum = 0.0;
    for (ServerId sid : dc_->servers_in_row(id)) {
      sum += latest_server_watts_[sid.index()];
    }
    latest_row_watts_[id.index()] = sum;
    latest_row_stamp_[id.index()] = stamp;
    total += sum;
    if (config_.record_rows) {
      db_->Append(row_series_[static_cast<size_t>(r)], stamp, sum);
    }
  }
  if (config_.record_total) {
    db_->Append(total_series_, stamp, total);
  }

  for (Group& group : groups_) {
    if (injector_->ChannelBlackedOut(group.channel, stamp)) {
      // The group's own virtual feed is dark; value and stamp stay put.
      continue;
    }
    double sum = 0.0;
    for (ServerId sid : group.servers) {
      sum += latest_server_watts_[sid.index()];
    }
    group.latest_watts = sum;
    group.latest_stamp = stamp;
    db_->Append(group.series, stamp, sum);
  }

  RecordRowTimeline(stamp, /*faulted=*/true);
}

void PowerMonitor::RecordRowTimeline(SimTime stamp, bool faulted) {
  if (obs::CurrentRecorder() == nullptr || !obs::Enabled()) {
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
      AMPERE_TIMELINE_D(obs_domain_, stamp,
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
      AMPERE_TIMELINE_D(obs_domain_, stamp,
                        in_margin
                            ? obs::TimelineEventType::kBreakerMarginEnter
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
