// The Ampere controller (Algorithm 1 of the paper).
//
// Once per minute, for every control domain (a row, or a virtual group in
// the controlled-experiment methodology), the controller:
//   1. reads the domain's latest aggregated power from the monitor,
//   2. computes the freezing ratio u_t from the SPCP closed form with the
//      hour-of-day E_t margin (Fig. 6),
//   3. selects the n_freeze highest-power servers, expanded by the r_stable
//      hysteresis band so a server whose power decayed only slightly is not
//      churned out of the frozen set, and
//   4. reconciles the actual frozen set through the scheduler's only two
//      power-control APIs: Freeze and Unfreeze.
//
// Step 3 is linear in the domain size: a selection (std::nth_element) finds
// the n_freeze-th server under the policy's strict order, pool membership is
// an epoch stamp per server, and only the prefix the freeze loop walks is
// ever sorted. The decisions equal a full sort's, server for server.
//
// The controller is stateless in the paper's sense: everything it needs is
// re-derivable from the monitor and the scheduler's frozen flags, so a
// replacement instance can take over at any tick (§3.2). The cached frozen
// sets here are an optimization, re-buildable via RebuildStateFromScheduler.

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/control/et_estimator.h"
#include "src/control/freeze_effect.h"
#include "src/control/online_predictor.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/power_monitor.h"

namespace ampere {

struct ControlDomain {
  // Monitor group name whose aggregated power this domain tracks.
  std::string group;
  // Schedulable servers under control (reserved servers excluded).
  std::vector<ServerId> servers;
  // The provisioned power budget P_M for the domain, in watts. The operator
  // may set it below the physical limit for an extra margin (§3.2).
  double budget_watts = 0.0;
};

// Which servers to freeze first. The paper freezes the highest-power
// servers (§3.5): they drain the most power and have the least spare
// capacity, so freezing them costs the least. The alternatives exist for the
// design-choice ablation bench.
enum class FreezeSelection : int {
  kHighestPower = 0,
  kRandom = 1,
  kLowestPower = 2,
};

struct AmpereControllerConfig {
  FreezeEffectModel effect{0.05};
  EtEstimator et = EtEstimator::Constant(0.025);
  // Operational cap on the freezing ratio (§4.1.1 uses 50 %).
  double max_freeze_ratio = 0.5;
  // Hysteresis: a frozen server stays freezable while its power is above
  // r_stable times the lowest power in the target set (§3.5 uses 0.8).
  double r_stable = 0.8;
  FreezeSelection selection = FreezeSelection::kHighestPower;
  // Seed for the kRandom selection policy's tie-breaking stream.
  uint64_t selection_seed = 1;
  // Extension (§3.6 future work): derive E_t from an online AR(1) predictor
  // over the live power stream instead of the static `et` profile.
  bool use_online_predictor = false;
  OnlinePredictorParams predictor;
  // RHC planning horizon N (§3.6's general PCP). The controller forecasts
  // E over the next N intervals from the E_t profile, solves the horizon-N
  // problem, and carries out only the first control. Lemma 3.1 proves this
  // equals the closed-form horizon-1 policy for linear f(u) — which the
  // extension_rhc_horizon bench verifies live. Requires >= 1; 1 uses the
  // Eq. (13) closed form directly.
  int horizon = 1;
  // Ring capacity of the per-controller DecisionJournal (the production
  // daemon's decision audit log, §3.2): one record per tick per domain,
  // 4096 covers a 24 h fig10 day (1440 minute-ticks x 2 arms) without
  // eviction. Must be positive.
  size_t journal_capacity = 4096;
  // Window, in records per domain, of the journal-fed model-drift gauges
  // (controller.model_rmse.* / controller.et_margin_util.*). 60 one-minute
  // ticks = the paper's hourly E_t cadence.
  size_t drift_window = 60;

  // --- Graceful degradation under faulty telemetry ---
  // A domain reading older than this is *stale*: the tick still runs, but on
  // last-known-good power with the E_t margin widened in proportion to the
  // reading's age (E_t is the per-minute 99.5p increase, so an m-minute-old
  // reading may have drifted by m·E_t). 1.5 control intervals by default so
  // ordinary sampling jitter never triggers it.
  SimTime stale_after = SimTime::Seconds(90);
  // A reading older than this — or a feed flagged blacked-out, or a domain
  // never sampled at all — is not trusted: the tick holds the current frozen
  // set rather than act on garbage (skip, don't guess), and journals the
  // skip as DegradedMode::kBlackoutSkip.
  SimTime blackout_after = SimTime::Minutes(5);
};

class AmpereController {
 public:
  // `scheduler` and `monitor` must outlive the controller.
  AmpereController(Scheduler* scheduler, const PowerMonitor* monitor,
                   const AmpereControllerConfig& config);

  void AddDomain(ControlDomain domain);

  // Schedules a periodic tick. Offset ticks slightly after the monitor's
  // sampling instants so each decision sees fresh data. The task is bound
  // to this instance's lifetime: after destruction (a failover replacing
  // the controller, §3.2) pending ticks become no-ops.
  void Start(Simulation* sim, SimTime first_tick,
             SimTime interval = SimTime::Minutes(1));

  // One control pass over all domains (public for tests and custom benches).
  void Tick(SimTime now);

  // Drops cached frozen sets and re-reads them from the scheduler — the
  // failover path of a stateless controller replacement.
  void RebuildStateFromScheduler();

  size_t num_domains() const { return domains_.size(); }

  // Re-targets one domain's power budget P_M mid-run, in watts. This is the
  // campus-federation hook: the hierarchical allocator re-divides the campus
  // contract across DCs and pushes each DC's share here between ticks. The
  // inner control loop is untouched — the next tick simply normalizes
  // against the new budget. Must be called from the simulation thread.
  void SetDomainBudget(size_t domain_index, double budget_watts);
  double domain_budget(size_t domain_index) const {
    return domains_[domain_index].budget_watts;
  }

  // Current freezing ratio |S_f| / n for one domain.
  double freeze_ratio(size_t domain_index) const;
  size_t frozen_count(size_t domain_index) const {
    return frozen_[domain_index].size();
  }
  uint64_t freeze_ops() const { return freeze_ops_; }
  uint64_t unfreeze_ops() const { return unfreeze_ops_; }
  uint64_t ticks() const { return ticks_; }

  // Degradation bookkeeping (all zero on fault-free runs).
  uint64_t degraded_ticks() const { return degraded_ticks_; }
  uint64_t blackout_skips() const { return blackout_skips_; }
  uint64_t stale_fallbacks() const { return stale_fallbacks_; }
  uint64_t rpc_failures() const { return rpc_failures_; }
  uint64_t rpc_giveups() const { return rpc_giveups_; }
  // Accounted (not event-injected) freeze/unfreeze RPC latency, summed.
  SimTime rpc_latency_total() const { return rpc_latency_total_; }

  // The decision audit log: one record per tick per domain. Each tick also
  // backfills the previous record's realized next-minute power, so resolved
  // records carry a (predicted, realized) pair for the f(u) = kr·u model.
  const obs::DecisionJournal& journal() const { return journal_; }

  // Metrics/timeline domain this controller's instrumentation is scoped
  // under ("dc2/" in a campus; the root domain, 0, standalone). Purely
  // observational: prefixes metric names and labels flight-recorder events,
  // never feeds back into control.
  void SetObsDomain(obs::DomainId domain) { obs_domain_ = domain; }
  obs::DomainId obs_domain() const { return obs_domain_; }

 private:
  void TickDomain(size_t domain_index, SimTime now);
  void UnfreezeAll(size_t domain_index);
  // Fallible scheduler RPCs (infallible without an injector attached to the
  // scheduler). Return overall success after the scheduler's bounded
  // retries; on failure the op did not happen and per-tick counters record
  // the adversity.
  bool RpcFreeze(ServerId id);
  bool RpcUnfreeze(ServerId id);
  void AccountRpc(const RpcResult& result);
  // Fills ranked_ with the domain's (watts, id) pairs and orders it so its
  // first n_freeze entries are the most-preferred-to-freeze servers under
  // the selection policy, with the n_freeze-th at index n_freeze - 1; the
  // prefix itself is left unsorted for the power policies (see SortRanked).
  // Grows pool_stamp_ to cover the domain's ids.
  void SelectTop(const ControlDomain& domain, size_t n_freeze);
  // Puts ranked_[first, last) in policy order. No-op for kRandom, whose
  // ranked_ is already the shuffled order.
  void SortRanked(size_t first, size_t last);
  bool InPool(ServerId id) const {
    return pool_stamp_[id.index()] == pool_epoch_;
  }

  Scheduler* scheduler_;
  const PowerMonitor* monitor_;
  AmpereControllerConfig config_;
  Rng selection_rng_{1};
  std::vector<ControlDomain> domains_;
  // Iteration order of these sets picks which extra servers are released
  // and the order unfreezes reach the scheduler, so they stay hash sets.
  std::vector<std::unordered_set<ServerId>> frozen_;
  // Per-tick selection scratch, reused across ticks and domains: the
  // domain's (watts, id) pairs in selection order, and the candidate pool
  // as one stamp per server (a server is in the pool when its stamp equals
  // the current epoch).
  std::vector<std::pair<double, ServerId>> ranked_;
  std::vector<uint32_t> pool_stamp_;
  uint32_t pool_epoch_ = 0;
  // Model-drift gauge names per domain, built once in AddDomain.
  struct DriftGaugeNames {
    std::string model_rmse;
    std::string et_margin_util;
  };
  std::vector<DriftGaugeNames> drift_gauges_;
  std::vector<OnlineEtPredictor> predictors_;  // One per domain if enabled.
  obs::DecisionJournal journal_;
  obs::DomainId obs_domain_ = 0;
  // Previous tick's degradation mode per domain, for flight-recorder
  // degraded-mode edge events (enter/exit fire on transitions only).
  std::vector<obs::DegradedMode> prev_mode_;
  // Tick timestamp in flight, so RPC helpers can stamp timeline events.
  SimTime tick_now_;
  // Last journal seq per domain, awaiting realized-power backfill.
  std::vector<std::optional<uint64_t>> pending_realized_;
  uint64_t freeze_ops_ = 0;
  uint64_t unfreeze_ops_ = 0;
  uint64_t ticks_ = 0;
  // Degradation bookkeeping (run totals + per-tick deltas for the journal).
  uint64_t degraded_ticks_ = 0;
  uint64_t blackout_skips_ = 0;
  uint64_t stale_fallbacks_ = 0;
  uint64_t rpc_failures_ = 0;
  uint64_t rpc_giveups_ = 0;
  SimTime rpc_latency_total_;
  uint32_t tick_rpc_failures_ = 0;
  uint32_t tick_rpc_giveups_ = 0;
  // Lifetime token for scheduled ticks; expires with the controller.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace ampere

#endif  // SRC_CORE_CONTROLLER_H_
