#include "src/core/controller.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/control/pcp.h"
#include "src/control/spcp.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace ampere {
namespace {

// The power policies' strict order: watts descending (ascending for
// kLowestPower), ids ascending among equal watts.
struct RankOrder {
  bool lowest_first;
  bool operator()(const std::pair<double, ServerId>& a,
                  const std::pair<double, ServerId>& b) const {
    if (a.first != b.first) {
      return lowest_first ? a.first < b.first : a.first > b.first;
    }
    return a.second < b.second;
  }
};

RankOrder OrderFor(FreezeSelection selection) {
  return RankOrder{selection == FreezeSelection::kLowestPower};
}

}  // namespace

AmpereController::AmpereController(Scheduler* scheduler,
                                   const PowerMonitor* monitor,
                                   const AmpereControllerConfig& config)
    : scheduler_(scheduler), monitor_(monitor), config_(config),
      selection_rng_(config.selection_seed),
      journal_(config.journal_capacity) {
  AMPERE_CHECK(scheduler != nullptr && monitor != nullptr);
  AMPERE_CHECK(config.r_stable > 0.0 && config.r_stable <= 1.0);
  AMPERE_CHECK(config.max_freeze_ratio > 0.0 &&
               config.max_freeze_ratio <= 1.0);
}

void AmpereController::SelectTop(const ControlDomain& domain,
                                 size_t n_freeze) {
  // Power readings are stable for the whole selection (nothing mutates them
  // between comparisons), so each server's watts are read once into the
  // (watts, id) buffer. The pool stamps grow here too, on first use.
  ranked_.clear();
  size_t stamps = pool_stamp_.size();
  for (ServerId id : domain.servers) {
    ranked_.emplace_back(monitor_->LatestServerWatts(id), id);
    stamps = std::max(stamps, id.index() + 1);
  }
  pool_stamp_.resize(stamps, 0u);
  if (config_.selection == FreezeSelection::kRandom) {
    // A full Fisher-Yates shuffle of the domain order: every tick that
    // selects draws n - 1 values from the selection stream.
    for (size_t i = ranked_.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(
          selection_rng_.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(ranked_[i - 1], ranked_[j]);
    }
    return;
  }
  // The order is strict (ids break watt ties), so the n_freeze-th element
  // and the set before it are exactly a full sort's.
  std::nth_element(ranked_.begin(),
                   ranked_.begin() + static_cast<ptrdiff_t>(n_freeze - 1),
                   ranked_.end(), OrderFor(config_.selection));
}

void AmpereController::SortRanked(size_t first, size_t last) {
  if (config_.selection == FreezeSelection::kRandom) {
    return;
  }
  std::sort(ranked_.begin() + static_cast<ptrdiff_t>(first),
            ranked_.begin() + static_cast<ptrdiff_t>(last),
            OrderFor(config_.selection));
}

void AmpereController::AddDomain(ControlDomain domain) {
  AMPERE_CHECK(!domain.servers.empty());
  AMPERE_CHECK(domain.budget_watts > 0.0);
  drift_gauges_.push_back({"controller.model_rmse." + domain.group,
                           "controller.et_margin_util." + domain.group});
  domains_.push_back(std::move(domain));
  frozen_.emplace_back();
  predictors_.emplace_back(config_.predictor);
  prev_mode_.push_back(obs::DegradedMode::kNone);
  pending_realized_.emplace_back();
}

void AmpereController::SetDomainBudget(size_t domain_index,
                                       double budget_watts) {
  AMPERE_CHECK(domain_index < domains_.size());
  AMPERE_CHECK(budget_watts > 0.0);
  domains_[domain_index].budget_watts = budget_watts;
}

void AmpereController::Start(Simulation* sim, SimTime first_tick,
                             SimTime interval) {
  AMPERE_CHECK(sim != nullptr);
  sim->SchedulePeriodic(
      first_tick, interval,
      [this, weak = std::weak_ptr<bool>(alive_)](SimTime t) {
        if (weak.expired()) {
          return;  // The controller was replaced; this tick is orphaned.
        }
        Tick(t);
      });
}

void AmpereController::Tick(SimTime now) {
  AMPERE_METRICS_DOMAIN(obs_domain_);
  AMPERE_SPAN("controller.tick");
  ++ticks_;
  tick_now_ = now;
  AMPERE_COUNTER_ADD("controller.ticks", 1);
  for (size_t d = 0; d < domains_.size(); ++d) {
    TickDomain(d, now);
  }
}

void AmpereController::TickDomain(size_t domain_index, SimTime now) {
  const ControlDomain& domain = domains_[domain_index];
  std::unordered_set<ServerId>& frozen_set = frozen_[domain_index];
  const uint64_t freeze_ops_before = freeze_ops_;
  const uint64_t unfreeze_ops_before = unfreeze_ops_;
  tick_rpc_failures_ = 0;
  tick_rpc_giveups_ = 0;

  // Read the domain feed with its freshness tags. On a fault-free run the
  // reading is always fresh and non-blacked, making this path equivalent to
  // the plain LatestGroupWatts() read it replaces.
  const PowerReading reading = monitor_->LatestGroupReading(domain.group, now);
  const SimTime age = reading.Age(now);
  obs::DegradedMode mode = obs::DegradedMode::kNone;
  if (reading.blacked_out || !reading.valid() ||
      age > config_.blackout_after) {
    mode = obs::DegradedMode::kBlackoutSkip;
  } else if (age > config_.stale_after) {
    mode = obs::DegradedMode::kStaleFallback;
  }

  double power = reading.watts;
  double p = power / domain.budget_watts;

  AMPERE_TIMELINE(now, obs::TimelineEventType::kTickBegin, power,
                  domain.budget_watts, domain_index);
  // Degraded-mode edges: one enter event when a domain leaves kNone, one
  // exit when it recovers — not one event per degraded tick.
  if (mode != prev_mode_[domain_index]) {
    if (prev_mode_[domain_index] == obs::DegradedMode::kNone) {
      AMPERE_TIMELINE(now, obs::TimelineEventType::kDegradedEnter,
                      static_cast<double>(static_cast<uint32_t>(mode)),
                      reading.valid() ? age.minutes() : -1.0, domain_index);
    } else if (mode == obs::DegradedMode::kNone) {
      AMPERE_TIMELINE(
          now, obs::TimelineEventType::kDegradedExit,
          static_cast<double>(static_cast<uint32_t>(prev_mode_[domain_index])),
          0.0, domain_index);
    }
    prev_mode_[domain_index] = mode;
  }

  // Resolve the previous tick's prediction: this minute's observed power is
  // the "realized next-minute power" of the record written one tick ago.
  // Only a *fresh* reading qualifies — backfilling a prediction with stale
  // telemetry would poison the model-drift statistics.
  if (pending_realized_[domain_index].has_value()) {
    if (mode == obs::DegradedMode::kNone) {
      journal_.SetRealized(*pending_realized_[domain_index], p);
    }
    pending_realized_[domain_index].reset();
  }

  double et;
  if (config_.use_online_predictor) {
    // Never feed stale observations into the live predictor.
    if (mode == obs::DegradedMode::kNone) {
      predictors_[domain_index].Observe(p);
    }
    et = predictors_[domain_index].Margin();
  } else {
    et = config_.et.Estimate(now);
  }
  // Stale fallback: the tick still runs on last-known-good power, but the
  // margin widens with the reading's age — E_t is the per-minute 99.5p
  // increase, so an m-minute-old value may have drifted by m·E_t.
  double et_eff = et;
  if (mode == obs::DegradedMode::kStaleFallback) {
    et_eff = et * std::max(1.0, age.minutes());
  }

  size_t n = domain.servers.size();
  double u = 0.0;
  size_t n_freeze = 0;

  // r_stable hysteresis state for the decision journal; only the
  // highest-power policy defines a power threshold.
  uint32_t pool_size = 0;
  double p_threshold = 0.0;

  if (mode == obs::DegradedMode::kBlackoutSkip) {
    // Skip, don't guess: the feed is dark (or was never sampled), so any
    // control action would be driven by garbage. Hold the frozen set.
    n_freeze = frozen_set.size();
    u = n > 0 ? static_cast<double>(n_freeze) / static_cast<double>(n) : 0.0;
  } else {
    if (config_.horizon <= 1) {
      u = FreezeRatioFor(p, et_eff, 1.0, config_.effect.kr(),
                         config_.max_freeze_ratio);
    } else {
      // Receding-horizon plan over the next N intervals; only u[0] is
      // carried out (§3.6). The E forecast reads the estimator at each
      // future minute (the online predictor extrapolates its current
      // margin). Under stale fallback the widened margin seeds the first
      // interval; later intervals read the profile as usual.
      PcpProblem problem;
      problem.p0 = p;
      problem.pm = 1.0;
      double kr = config_.effect.kr();
      problem.f = [kr](double v) { return kr * v; };
      for (int k = 0; k < config_.horizon; ++k) {
        double e_k = config_.use_online_predictor
                         ? et
                         : config_.et.Estimate(now + SimTime::Minutes(k));
        if (k == 0) e_k = et_eff;
        problem.e.push_back(e_k);
      }
      PcpSolution plan = SolvePcpGreedy(problem);
      u = std::min(plan.u.front(), config_.max_freeze_ratio);
    }
    n_freeze = static_cast<size_t>(std::floor(u * static_cast<double>(n)));
  }

  if (mode == obs::DegradedMode::kBlackoutSkip) {
    // No reconciliation: scheduler state and cached set stay untouched.
  } else if (n_freeze == 0) {
    // Below threshold (or rounding swallowed the ratio): release everything.
    UnfreezeAll(domain_index);
  } else {
    // Rank the domain's servers most-preferred-to-freeze first. The paper's
    // policy (highest power first) costs the least spare capacity (§3.5) and
    // maximizes the drain effect; alternatives serve the ablation bench.
    n_freeze = std::min(n_freeze, n);
    SelectTop(domain, n_freeze);

    // Candidate pool S: the n_freeze top servers, expanded by a hysteresis
    // band so small power decays do not churn the frozen set (Algorithm 1,
    // lines 7-10). For the power-ranked paper policy the band is r_stable
    // times the weakest top-set member's power; the servers above it are
    // the next ones in rank order, so the pool is a rank prefix, gathered
    // here (unsorted) into ranked_[0, pool_end). For the ablation policies
    // the pool simply retains currently frozen servers.
    if (++pool_epoch_ == 0) {  // Wrapped: no stale stamp may match.
      std::fill(pool_stamp_.begin(), pool_stamp_.end(), 0u);
      pool_epoch_ = 1;
    }
    auto stamp = [&](ServerId id) {
      if (!InPool(id)) {
        pool_stamp_[id.index()] = pool_epoch_;
        ++pool_size;
      }
    };
    for (size_t i = 0; i < n_freeze; ++i) {
      stamp(ranked_[i].second);
    }
    size_t pool_end = n_freeze;
    if (config_.selection == FreezeSelection::kHighestPower) {
      p_threshold = config_.r_stable * ranked_[n_freeze - 1].first;
      pool_end = static_cast<size_t>(
          std::partition(ranked_.begin() + static_cast<ptrdiff_t>(n_freeze),
                         ranked_.end(),
                         [p_threshold](const auto& entry) {
                           return entry.first > p_threshold;
                         }) -
          ranked_.begin());
      for (size_t i = n_freeze; i < pool_end; ++i) {
        stamp(ranked_[i].second);
      }
    } else {
      for (ServerId id : frozen_set) {
        stamp(id);
      }
    }

    // Unfreeze servers that dropped out of the pool (lines 11-12). A lost
    // unfreeze RPC (after the scheduler's bounded retries) leaves the server
    // frozen — it stays in the cached set so bookkeeping matches the
    // scheduler's flags, and the next tick retries naturally.
    for (auto it = frozen_set.begin(); it != frozen_set.end();) {
      if (!InPool(*it)) {
        if (RpcUnfreeze(*it)) {
          ++unfreeze_ops_;
          it = frozen_set.erase(it);
        } else {
          ++it;
        }
      } else {
        ++it;
      }
    }

    if (frozen_set.size() > n_freeze) {
      // Too many frozen: release arbitrary extras (lines 13-14).
      size_t excess = frozen_set.size() - n_freeze;
      for (auto it = frozen_set.begin();
           it != frozen_set.end() && excess > 0;) {
        if (RpcUnfreeze(*it)) {
          ++unfreeze_ops_;
          it = frozen_set.erase(it);
          --excess;
        } else {
          ++it;
        }
      }
    } else if (frozen_set.size() < n_freeze) {
      // Too few: freeze the highest-ranked pool members not yet frozen
      // (lines 15-16), walking the pool in rank order. A lost freeze RPC
      // skips to the next-ranked candidate, so the target count is usually
      // still met from the hysteresis tail — sorted only once the walk
      // reaches it; if the pool runs out the tick ends under target and the
      // journal records the give-ups — the next tick re-solves from fresh
      // power and retries. Pool members ranked below the top set under the
      // ablation policies are all frozen already, so their walk ends at
      // n_freeze.
      SortRanked(0, n_freeze);
      for (size_t i = 0; i < pool_end && frozen_set.size() < n_freeze; ++i) {
        if (i == n_freeze) {
          SortRanked(n_freeze, pool_end);
        }
        const ServerId id = ranked_[i].second;
        if (!frozen_set.contains(id) && RpcFreeze(id)) {
          ++freeze_ops_;
          frozen_set.insert(id);
        }
      }
    }
  }

  const auto freeze_delta =
      static_cast<uint32_t>(freeze_ops_ - freeze_ops_before);
  const auto unfreeze_delta =
      static_cast<uint32_t>(unfreeze_ops_ - unfreeze_ops_before);
  const bool violation = p > 1.0;
  const bool cap_engaged = u >= config_.max_freeze_ratio;

  // Journal the decision for audit. The journal only *observes* (it never
  // feeds back into control or RNG state), so simulation results do not
  // depend on it.
  obs::DecisionRecord record;
  record.time = now;
  record.domain = domain.group;
  record.observed_watts = power;
  record.budget_watts = domain.budget_watts;
  record.normalized_power = p;
  record.et = et;
  record.violation = violation;
  // One-step model bound: next-minute power may rise by at most E_t and
  // the freeze drains f(u) (Eq. 13's balance). The next tick backfills
  // what actually happened. A blackout skip predicts "hold": no model
  // claim is made from a dark feed.
  record.predicted_next = mode == obs::DegradedMode::kBlackoutSkip
                              ? p
                              : p + et_eff - config_.effect.Effect(u);
  record.u = u;
  record.cap_engaged = cap_engaged;
  record.n_freeze = static_cast<uint32_t>(n_freeze);
  record.n_servers = static_cast<uint32_t>(n);
  record.freeze_ops = freeze_delta;
  record.unfreeze_ops = unfreeze_delta;
  record.pool_size = pool_size;
  record.p_threshold = p_threshold;
  record.degraded = mode;
  record.reading_age_us = reading.valid() ? age.micros() : -1;
  record.et_effective = et_eff;
  record.rpc_failures = tick_rpc_failures_;
  record.rpc_giveups = tick_rpc_giveups_;
  const uint64_t seq = journal_.Append(std::move(record));
  // Degraded ticks never arm a prediction: their base value is stale (or
  // a hold), so resolving them would corrupt the drift gauges.
  if (mode == obs::DegradedMode::kNone) {
    pending_realized_[domain_index] = seq;
  }

  // Timeline events come AFTER the journal append so a violation-triggered
  // postmortem (the anomaly sink fires synchronously inside the recorder)
  // tails a journal that already ends with the triggering decision.
  if (violation) {
    AMPERE_TIMELINE(now, obs::TimelineEventType::kCapacityViolation, p,
                    domain.budget_watts, domain_index);
  }
  AMPERE_TIMELINE(now, obs::TimelineEventType::kTickEnd, et_eff, u, n_freeze);

  // Degradation bookkeeping (run totals + faults.* registry counters).
  if (mode != obs::DegradedMode::kNone) {
    ++degraded_ticks_;
    AMPERE_COUNTER_ADD("faults.degraded_ticks", 1);
    if (mode == obs::DegradedMode::kBlackoutSkip) {
      ++blackout_skips_;
      AMPERE_COUNTER_ADD("faults.blackout_skips", 1);
    } else {
      ++stale_fallbacks_;
      AMPERE_COUNTER_ADD("faults.stale_fallbacks", 1);
    }
  }

  // Registry telemetry.
  AMPERE_COUNTER_ADD("controller.domain_ticks", 1);
  if (violation) AMPERE_COUNTER_ADD("controller.violations", 1);
  if (cap_engaged) AMPERE_COUNTER_ADD("controller.cap_engaged", 1);
  if (freeze_delta > 0) {
    AMPERE_COUNTER_ADD("controller.freeze_ops", freeze_delta);
  }
  if (unfreeze_delta > 0) {
    AMPERE_COUNTER_ADD("controller.unfreeze_ops", unfreeze_delta);
  }
  // Journal-fed model-drift gauges over the last drift_window (one hour
  // at minute cadence) resolved records of this domain.
  if (auto rmse =
          journal_.RollingModelRmse(config_.drift_window, domain.group)) {
    obs::GaugeSet(drift_gauges_[domain_index].model_rmse, *rmse);
  }
  if (auto util = journal_.RollingEtMarginUtilization(config_.drift_window,
                                                      domain.group)) {
    obs::GaugeSet(drift_gauges_[domain_index].et_margin_util, *util);
  }

  AMPERE_LOG(kDebug) << "domain " << domain.group << " p=" << p
                     << " et=" << et << " u=" << u
                     << " frozen=" << frozen_set.size() << "/" << n;
}

void AmpereController::UnfreezeAll(size_t domain_index) {
  std::unordered_set<ServerId>& set = frozen_[domain_index];
  for (auto it = set.begin(); it != set.end();) {
    if (RpcUnfreeze(*it)) {
      ++unfreeze_ops_;
      it = set.erase(it);
    } else {
      // Lost after retries: the server stays frozen in the scheduler, so it
      // stays in the cached set too; the next tick retries.
      ++it;
    }
  }
}

bool AmpereController::RpcFreeze(ServerId id) {
  const RpcResult result = scheduler_->TryFreeze(id);
  AccountRpc(result);
  AMPERE_TIMELINE(tick_now_, obs::TimelineEventType::kFreezeRpc,
                  result.attempts, result.ok ? 1.0 : 0.0,
                  static_cast<uint64_t>(id.value()));
  return result.ok;
}

bool AmpereController::RpcUnfreeze(ServerId id) {
  const RpcResult result = scheduler_->TryUnfreeze(id);
  AccountRpc(result);
  AMPERE_TIMELINE(tick_now_, obs::TimelineEventType::kUnfreezeRpc,
                  result.attempts, result.ok ? 1.0 : 0.0,
                  static_cast<uint64_t>(id.value()));
  return result.ok;
}

void AmpereController::AccountRpc(const RpcResult& result) {
  rpc_latency_total_ += result.latency;
  const auto failed_attempts =
      static_cast<uint32_t>(result.attempts - (result.ok ? 1 : 0));
  if (failed_attempts > 0) {
    tick_rpc_failures_ += failed_attempts;
    rpc_failures_ += failed_attempts;
    AMPERE_COUNTER_ADD("faults.controller_rpc_failures", failed_attempts);
  }
  if (!result.ok) {
    ++tick_rpc_giveups_;
    ++rpc_giveups_;
    AMPERE_COUNTER_ADD("faults.controller_rpc_giveups", 1);
  }
}

void AmpereController::RebuildStateFromScheduler() {
  for (size_t d = 0; d < domains_.size(); ++d) {
    frozen_[d].clear();
    for (ServerId id : domains_[d].servers) {
      if (scheduler_->IsFrozen(id)) {
        frozen_[d].insert(id);
      }
    }
  }
}

double AmpereController::freeze_ratio(size_t domain_index) const {
  const ControlDomain& domain = domains_[domain_index];
  if (domain.servers.empty()) {
    return 0.0;
  }
  return static_cast<double>(frozen_[domain_index].size()) /
         static_cast<double>(domain.servers.size());
}

}  // namespace ampere
