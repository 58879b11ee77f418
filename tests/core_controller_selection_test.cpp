// Property test of the controller's freeze selection against a reference
// copy of the original algorithm: a full sort of the domain per tick and a
// hash-set candidate pool. Two identical rigs run in lockstep, one driven by
// AmpereController and one by the reference; every tick must issue the same
// freeze/unfreeze RPCs in the same order, journal the same pool size and
// threshold, and leave the same servers frozen.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/controller.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/obs/flight_recorder.h"

namespace ampere {
namespace {

struct RpcCall {
  bool freeze = false;
  int32_t server = -1;
  bool ok = false;
  bool operator==(const RpcCall&) const = default;
};

// The selection and reconciliation of Algorithm 1 as first written: rank
// the whole domain, build the pool as a hash set, walk the full ranking.
class ReferenceSelector {
 public:
  ReferenceSelector(Scheduler* scheduler, const PowerMonitor* monitor,
                    FreezeSelection selection, double r_stable, uint64_t seed)
      : scheduler_(scheduler), monitor_(monitor), selection_(selection),
        r_stable_(r_stable), rng_(seed) {}

  void AddDomain(std::vector<ServerId> servers) {
    domains_.push_back(std::move(servers));
    frozen_.emplace_back();
  }

  void RebuildStateFromScheduler() {
    for (size_t d = 0; d < domains_.size(); ++d) {
      frozen_[d].clear();
      for (ServerId id : domains_[d]) {
        if (scheduler_->IsFrozen(id)) frozen_[d].insert(id);
      }
    }
  }

  // One domain's reconciliation for a tick that decided `n_freeze`.
  void Reconcile(size_t d, size_t n_freeze, uint32_t* pool_size,
                 double* p_threshold) {
    std::unordered_set<ServerId>& frozen_set = frozen_[d];
    *pool_size = 0;
    *p_threshold = 0.0;
    if (n_freeze == 0) {
      for (auto it = frozen_set.begin(); it != frozen_set.end();) {
        it = Unfreeze(*it) ? frozen_set.erase(it) : std::next(it);
      }
      return;
    }
    const std::vector<ServerId> ranked = Rank(domains_[d]);
    n_freeze = std::min(n_freeze, ranked.size());
    std::unordered_set<ServerId> pool;
    if (selection_ == FreezeSelection::kHighestPower) {
      *p_threshold =
          r_stable_ * monitor_->LatestServerWatts(ranked[n_freeze - 1]);
      for (size_t i = 0; i < ranked.size(); ++i) {
        if (i < n_freeze ||
            monitor_->LatestServerWatts(ranked[i]) > *p_threshold) {
          pool.insert(ranked[i]);
        }
      }
    } else {
      for (size_t i = 0; i < n_freeze; ++i) pool.insert(ranked[i]);
      pool.insert(frozen_set.begin(), frozen_set.end());
    }
    *pool_size = static_cast<uint32_t>(pool.size());
    for (auto it = frozen_set.begin(); it != frozen_set.end();) {
      it = !pool.contains(*it) && Unfreeze(*it) ? frozen_set.erase(it)
                                                 : std::next(it);
    }
    if (frozen_set.size() > n_freeze) {
      size_t excess = frozen_set.size() - n_freeze;
      for (auto it = frozen_set.begin();
           it != frozen_set.end() && excess > 0;) {
        if (Unfreeze(*it)) {
          it = frozen_set.erase(it);
          --excess;
        } else {
          ++it;
        }
      }
    } else if (frozen_set.size() < n_freeze) {
      for (ServerId id : ranked) {
        if (frozen_set.size() >= n_freeze) break;
        if (pool.contains(id) && !frozen_set.contains(id) && Freeze(id)) {
          frozen_set.insert(id);
        }
      }
    }
  }

  size_t frozen_count(size_t d) const { return frozen_[d].size(); }
  std::vector<RpcCall>& calls() { return calls_; }

 private:
  std::vector<ServerId> Rank(const std::vector<ServerId>& servers) {
    std::vector<ServerId> ranked = servers;
    if (selection_ == FreezeSelection::kRandom) {
      for (size_t i = ranked.size(); i > 1; --i) {
        size_t j = static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(ranked[i - 1], ranked[j]);
      }
      return ranked;
    }
    const bool highest = selection_ == FreezeSelection::kHighestPower;
    std::sort(ranked.begin(), ranked.end(), [&](ServerId a, ServerId b) {
      const double wa = monitor_->LatestServerWatts(a);
      const double wb = monitor_->LatestServerWatts(b);
      if (wa != wb) return highest ? wa > wb : wa < wb;
      return a < b;
    });
    return ranked;
  }

  bool Freeze(ServerId id) {
    const bool ok = scheduler_->TryFreeze(id).ok;
    calls_.push_back({true, id.value(), ok});
    return ok;
  }
  bool Unfreeze(ServerId id) {
    const bool ok = scheduler_->TryUnfreeze(id).ok;
    calls_.push_back({false, id.value(), ok});
    return ok;
  }

  Scheduler* scheduler_;
  const PowerMonitor* monitor_;
  FreezeSelection selection_;
  double r_stable_;
  Rng rng_;
  std::vector<std::vector<ServerId>> domains_;
  std::vector<std::unordered_set<ServerId>> frozen_;
  std::vector<RpcCall> calls_;
};

struct Case {
  FreezeSelection selection;
  double rpc_failure_prob;
  bool prefreeze;
  uint64_t seed;
};

// One row of 48 servers, split into two interleaved control domains so
// domain ids are sparse. Loads come from a few core counts and readings are
// quantized, so equal watts are common and ids must break the ties.
struct Rig {
  Simulation sim;
  DataCenter dc;
  TimeSeriesDb db;
  Scheduler scheduler;
  PowerMonitor monitor;
  std::optional<faults::FaultInjector> injector;
  Rng load_rng;
  int32_t next_job = 0;

  static TopologyConfig Topology() {
    TopologyConfig config;
    config.num_rows = 1;
    config.racks_per_row = 6;
    config.servers_per_rack = 8;
    config.server_capacity = Resources{16.0, 64.0};
    return config;
  }
  static PowerMonitorConfig MonitorConfig(uint64_t seed) {
    PowerMonitorConfig config;
    config.noise_sigma_watts = seed % 2 == 0 ? 0.0 : 1.0;
    config.quantize_to_watts = true;
    return config;
  }

  explicit Rig(const Case& c)
      : dc(Topology(), &sim), scheduler(&dc, SchedulerConfig{}, Rng(3)),
        monitor(&dc, &db, MonitorConfig(c.seed), Rng(4)),
        load_rng(c.seed) {
    if (c.rpc_failure_prob > 0.0) {
      faults::FaultPlanConfig chaos;
      chaos.seed = c.seed;
      chaos.rpc_failure_prob = c.rpc_failure_prob;
      injector.emplace(faults::FaultPlan::Generate(chaos, SimTime::Hours(2)));
      scheduler.AttachFaultInjector(&*injector);
    }
    for (const auto& [name, servers] : Domains()) {
      monitor.RegisterGroup(name, servers);
    }
    if (c.prefreeze) {
      for (int32_t s = 0; s < dc.num_servers(); ++s) {
        if (load_rng.Bernoulli(0.4)) scheduler.Freeze(ServerId(s));
      }
    }
  }

  std::vector<std::pair<std::string, std::vector<ServerId>>> Domains() const {
    std::vector<ServerId> even;
    std::vector<ServerId> odd;
    for (int32_t s = 0; s < dc.num_servers(); ++s) {
      (s % 2 == 0 ? even : odd).push_back(ServerId(s));
    }
    return {{"even", even}, {"odd", odd}};
  }

  // New short tasks on random servers from a few sizes, then run to `now`
  // (completions free capacity) and sample.
  void Advance(SimTime now) {
    static constexpr double kCores[] = {2.0, 4.0, 4.0, 8.0};
    for (int i = 0; i < 30; ++i) {
      const auto s = static_cast<int32_t>(
          load_rng.UniformInt(0, dc.num_servers() - 1));
      const double cores = kCores[load_rng.UniformInt(0, 3)];
      const auto minutes = static_cast<double>(load_rng.UniformInt(1, 4));
      dc.PlaceTask(ServerId(s),
                   TaskSpec{JobId(next_job++), Resources{cores, cores},
                            SimTime::Minutes(minutes)});
    }
    sim.RunUntil(now);
    monitor.SampleOnce(now);
  }
};

// A budget that drives the domain to exactly `target` frozen servers of
// `n` (or to zero below threshold, or to all n above the cap).
double BudgetFor(double watts, size_t target, size_t n, double kr,
                 double et) {
  if (target == 0) return watts / 0.9;
  const double u = target >= n ? 1.5 : (static_cast<double>(target) + 0.5) /
                                           static_cast<double>(n);
  return watts / (1.0 - et + kr * u);
}

void RunCase(const Case& c) {
  SCOPED_TRACE(::testing::Message()
               << "selection=" << static_cast<int>(c.selection)
               << " rpc_failure_prob=" << c.rpc_failure_prob
               << " prefreeze=" << c.prefreeze << " seed=" << c.seed);
  constexpr double kKr = 0.05;
  constexpr double kEt = 0.02;
  const double r_stable = c.seed % 3 == 0 ? 1.0 : 0.8;
  Rig a(c);
  Rig b(c);

  AmpereControllerConfig config;
  config.effect = FreezeEffectModel(kKr);
  config.et = EtEstimator::Constant(kEt);
  config.max_freeze_ratio = 1.0;
  config.r_stable = r_stable;
  config.selection = c.selection;
  config.selection_seed = c.seed + 100;
  AmpereController controller(&a.scheduler, &a.monitor, config);
  ReferenceSelector reference(&b.scheduler, &b.monitor, c.selection, r_stable,
                              c.seed + 100);
  for (const auto& [name, servers] : a.Domains()) {
    controller.AddDomain({name, servers, 1.0});
    reference.AddDomain(servers);
  }
  controller.RebuildStateFromScheduler();
  reference.RebuildStateFromScheduler();

  Rng target_rng(c.seed * 7 + 1);
  bool saw_one = false;
  bool saw_all = false;
  obs::FlightRecorder recorder(1 << 14);
  for (int minute = 1; minute <= 40; ++minute) {
    const SimTime now = SimTime::Minutes(minute);
    a.Advance(now);
    b.Advance(now);
    for (size_t d = 0; d < controller.num_domains(); ++d) {
      const size_t n = a.Domains()[d].second.size();
      const int64_t pick = target_rng.UniformInt(0, 5);
      const size_t target =
          pick == 0 ? 1
          : pick == 1 ? n / 2
          : pick == 2 ? n
          : pick == 3 ? 0
                      : static_cast<size_t>(target_rng.UniformInt(
                            1, static_cast<int64_t>(n)));
      controller.SetDomainBudget(
          d, BudgetFor(a.monitor.LatestGroupWatts(a.Domains()[d].first),
                       target, n, kKr, kEt));
    }

    const uint64_t events_before = recorder.total_appended();
    {
      obs::ScopedFlightRecorder scope(&recorder);
      controller.Tick(now);
    }
    const std::vector<obs::DecisionRecord> records =
        controller.journal().Query(now, now + SimTime::Micros(1));
    ASSERT_EQ(records.size(), controller.num_domains());
    reference.calls().clear();
    for (size_t d = 0; d < controller.num_domains(); ++d) {
      uint32_t pool_size = 0;
      double p_threshold = 0.0;
      reference.Reconcile(d, records[d].n_freeze, &pool_size, &p_threshold);
      saw_one |= records[d].n_freeze == 1;
      saw_all |= records[d].n_freeze == records[d].n_servers;
      EXPECT_EQ(records[d].pool_size, pool_size) << "minute " << minute;
      EXPECT_EQ(records[d].p_threshold, p_threshold) << "minute " << minute;
      EXPECT_EQ(controller.frozen_count(d), reference.frozen_count(d))
          << "minute " << minute;
    }

    std::vector<RpcCall> calls;
    recorder.ForEach([&](const obs::TimelineEvent& e) {
      if (e.seq < events_before) return;
      if (e.type == obs::TimelineEventType::kFreezeRpc ||
          e.type == obs::TimelineEventType::kUnfreezeRpc) {
        calls.push_back({e.type == obs::TimelineEventType::kFreezeRpc,
                         static_cast<int32_t>(e.c), e.b == 1.0});
      }
    });
    ASSERT_EQ(calls, reference.calls()) << "minute " << minute;
    for (int32_t s = 0; s < a.dc.num_servers(); ++s) {
      ASSERT_EQ(a.scheduler.IsFrozen(ServerId(s)),
                b.scheduler.IsFrozen(ServerId(s)))
          << "server " << s << " minute " << minute;
    }
  }
  EXPECT_TRUE(saw_one && saw_all) << "n_freeze never hit 1 or n";
  if (a.injector) {
    EXPECT_EQ(a.injector->counts().rpc_attempts,
              b.injector->counts().rpc_attempts);
  }
}

TEST(ControllerSelectionPropertyTest, MatchesFullSortReference) {
  for (FreezeSelection selection :
       {FreezeSelection::kHighestPower, FreezeSelection::kRandom,
        FreezeSelection::kLowestPower}) {
    for (double rpc_failure_prob : {0.0, 0.3}) {
      for (bool prefreeze : {false, true}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
          RunCase({selection, rpc_failure_prob, prefreeze, seed});
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ampere
