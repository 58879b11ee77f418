#include "src/cluster/datacenter.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/span_kernels.h"
#include "src/obs/flight_recorder.h"

namespace ampere {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// A server's free-capacity index entry: its free capacity while it is a
// candidate, −inf on both axes (fits nothing) otherwise.
Resources FreeEntry(const Server& server) {
  return server.SchedulableState() ? server.Available()
                                   : Resources{kNegInf, kNegInf};
}

Resources AxisMax(const Resources& a, const Resources& b) {
  return {std::max(a.cpu_cores, b.cpu_cores),
          std::max(a.memory_gb, b.memory_gb)};
}

}  // namespace

DataCenter::DataCenter(const TopologyConfig& config, Simulation* sim)
    : sim_(sim), ladder_(config.ladder),
      capping_enabled_(config.capping_enabled),
      capping_mode_(config.capping_mode),
      sleep_watts_(config.power_model.rated_watts * config.sleep_fraction),
      wake_latency_(config.wake_latency) {
  AMPERE_CHECK(sim != nullptr);
  event_target_ = sim->RegisterTarget(this);
  AMPERE_CHECK(config.num_rows >= 1);
  AMPERE_CHECK(config.racks_per_row >= 1);
  AMPERE_CHECK(config.servers_per_rack >= 1);

  // Build the generation models; servers keep pointers into models_, so it
  // must never be resized after this block.
  if (config.server_generations.empty()) {
    models_.emplace_back(config.power_model);
  } else {
    models_.reserve(config.server_generations.size());
    for (const PowerModelParams& params : config.server_generations) {
      models_.emplace_back(params);
    }
  }
  for (const ServerPowerModel& model : models_) {
    AMPERE_CHECK(sleep_watts_ < model.idle_watts())
        << "sleep floor must be below every generation's idle power";
  }

  const size_t total_servers = static_cast<size_t>(config.num_rows) *
                               static_cast<size_t>(config.racks_per_row) *
                               static_cast<size_t>(config.servers_per_rack);
  servers_.reserve(total_servers);

  int32_t next_server = 0;
  int32_t next_rack = 0;
  double total_idle = 0.0;
  for (int32_t r = 0; r < config.num_rows; ++r) {
    RowId row_id(r);
    RowState row;
    row.breaker = CircuitBreaker(config.breaker);
    row.server_range.begin = static_cast<size_t>(next_server);
    double row_rated = 0.0;
    for (int k = 0; k < config.racks_per_row; ++k) {
      RackId rack_id(next_rack++);
      // Racks are homogeneous; generations cycle across racks.
      const ServerPowerModel& model =
          models_[static_cast<size_t>(rack_id.value()) % models_.size()];
      RackState rack;
      rack.row = row_id;
      rack.server_range.begin = static_cast<size_t>(next_server);
      for (int s = 0; s < config.servers_per_rack; ++s) {
        ServerId server_id(next_server++);
        servers_.emplace_back(server_id, rack_id, row_id,
                              config.server_capacity, &model);
        servers_.back().sleep_watts_ = sleep_watts_;
        rack.servers.push_back(server_id);
        row.servers.push_back(server_id);
      }
      rack.server_range.end = static_cast<size_t>(next_server);
      double rack_rated = static_cast<double>(config.servers_per_rack) *
                          model.rated_watts();
      rack.budget_watts = config.rack_budget_watts > 0.0
                              ? config.rack_budget_watts
                              : rack_rated;
      rack.power_watts = static_cast<double>(config.servers_per_rack) *
                         model.idle_watts();
      row_rated += rack_rated;
      row.idle_sum_watts += rack.power_watts;
      row.racks.push_back(rack_id);
      racks_.push_back(std::move(rack));
    }
    row.server_range.end = static_cast<size_t>(next_server);
    row.budget_watts = config.row_budget_watts > 0.0
                           ? config.row_budget_watts
                           : row_rated;
    row.capping_budget_watts = row.budget_watts;
    row.power_watts = row.idle_sum_watts;
    row.dynamic_full_sum_watts = 0.0;
    total_idle += row.idle_sum_watts;
    rows_.push_back(std::move(row));
  }
  total_power_watts_ = total_idle;

  // Wire the SoA power core: size the arrays once (never resized again, so
  // the slot pointers below stay valid for the DataCenter's lifetime), hand
  // every server its slots, and seed the cached values at the initial
  // operating point (idle, full frequency, awake).
  AMPERE_CHECK(servers_.size() == total_servers);
  soa_power_watts_.assign(total_servers, 0.0);
  soa_dynamic_full_watts_.assign(total_servers, 0.0);
  for (size_t i = 0; i < total_servers; ++i) {
    servers_[i].AttachSoaSlots(&soa_power_watts_[i],
                               &soa_dynamic_full_watts_[i]);
    servers_[i].RecomputePowerCache();
  }

  // The free-capacity index's entries: every server starts as an empty
  // candidate, its whole capacity free, and the padding fits nothing. The
  // max tree is built on first use.
  schedulable_free_.assign(total_servers, config.server_capacity);
  const size_t blocks = (total_servers + kFreeBlock - 1) / kFreeBlock;
  schedulable_free_.resize(std::bit_ceil(blocks) * kFreeBlock,
                           Resources{kNegInf, kNegInf});
}

void DataCenter::RefreshSchedulable(ServerId id) {
  schedulable_free_[id.index()] = FreeEntry(servers_[id.index()]);
  if (free_max_.empty()) {
    return;  // The first MaxSchedulableFree() builds every node.
  }
  // Within the capacity reserved on the first build: never allocates.
  const size_t block = id.index() / kFreeBlock;
  if (stale_block_[block] == 0) {
    stale_block_[block] = 1;
    stale_blocks_.push_back(block);
  }
}

Resources DataCenter::BlockMax(size_t block) const {
  // Four independent running maxima keep the dependency chain short.
  const Resources* entry = &schedulable_free_[block * kFreeBlock];
  Resources a = entry[0];
  Resources b = entry[1];
  Resources c = entry[2];
  Resources d = entry[3];
  for (size_t j = 4; j < kFreeBlock; j += 4) {
    a = AxisMax(a, entry[j]);
    b = AxisMax(b, entry[j + 1]);
    c = AxisMax(c, entry[j + 2]);
    d = AxisMax(d, entry[j + 3]);
  }
  return AxisMax(AxisMax(a, b), AxisMax(c, d));
}

size_t DataCenter::FirstFitInBlock(size_t block, size_t from,
                                   const Resources& demand) const {
  const size_t begin = block * kFreeBlock;
  for (size_t i = begin + from; i < begin + kFreeBlock; ++i) {
    if (schedulable_free_[i].Fits(demand)) {
      return i;
    }
  }
  return schedulable_free_.size();
}

const Resources& DataCenter::MaxSchedulableFree() {
  const size_t blocks = schedulable_free_.size() / kFreeBlock;
  if (free_max_.empty()) {
    // The first call builds the tree; the only allocation.
    free_max_.resize(2 * blocks);
    stale_block_.assign(blocks, 0);
    stale_blocks_.reserve(blocks);
    for (size_t b = 0; b < blocks; ++b) {
      free_max_[blocks + b] = BlockMax(b);
    }
    for (size_t node = blocks - 1; node >= 1; --node) {
      free_max_[node] = AxisMax(free_max_[2 * node], free_max_[2 * node + 1]);
    }
    return free_max_[1];
  }
  for (size_t block : stale_blocks_) {
    // Recompute the block, then each ancestor from its children, stopping
    // at the first node whose value does not change: the ones above it are
    // current for this block, and every other changed block climbs its own
    // path.
    stale_block_[block] = 0;
    size_t node = blocks + block;
    Resources max = BlockMax(block);
    while (max != free_max_[node]) {
      free_max_[node] = max;
      node >>= 1;
      if (node == 0) {
        break;
      }
      max = AxisMax(free_max_[2 * node], free_max_[2 * node + 1]);
    }
  }
  stale_blocks_.clear();
  return free_max_[1];
}

size_t DataCenter::FirstFitFrom(size_t begin, const Resources& demand) const {
  const size_t blocks = free_max_.size() / 2;
  const size_t none = schedulable_free_.size();
  // The rest of `begin`'s own block first.
  size_t node = blocks + begin / kFreeBlock;
  size_t found = FirstFitInBlock(node - blocks, begin % kFreeBlock, demand);
  for (;;) {
    if (found != none) {
      return found;
    }
    // `node` is ruled out: move to the next node to its right, the right
    // sibling of its nearest ancestor-or-self that is a left child.
    // Climbing past the root (node 1, odd) leaves node 0: nothing fits.
    while ((node & 1) != 0) {
      node >>= 1;
    }
    if (node == 0) {
      return none;
    }
    ++node;
    // Enter fitting nodes at their left child down to a block, whose
    // entries then decide; a node ruled out stops the descent.
    while (node < blocks && free_max_[node].Fits(demand)) {
      node *= 2;
    }
    found = node >= blocks && free_max_[node].Fits(demand)
                ? FirstFitInBlock(node - blocks, 0, demand)
                : none;
  }
}

ServerId DataCenter::FirstSchedulableFit(size_t origin,
                                         const Resources& demand) const {
  AMPERE_DCHECK(!free_max_.empty() && stale_blocks_.empty());
  const size_t none = schedulable_free_.size();
  size_t index = FirstFitFrom(origin, demand);
  if (index == none && origin > 0) {
    // Nothing fits at or after the origin, so the first fit from 0 (if
    // any) lies before it.
    index = FirstFitFrom(0, demand);
  }
  return index == none ? ServerId() : ServerId(static_cast<int32_t>(index));
}

bool DataCenter::PlaceTask(ServerId id, const TaskSpec& spec) {
  AMPERE_CHECK(id.valid() && id.index() < servers_.size());
  Server& server = servers_[id.index()];
  if (server.asleep_ || !server.CanFit(spec.demand)) {
    return false;
  }
  AMPERE_CHECK(spec.work > SimTime()) << "task with non-positive work";

  double old_power = server.power_watts();
  double old_dynamic = server.dynamic_watts_at_full_freq();

  // The record this task takes: the most recently freed one, else a new
  // one. It is claimed only once the job is known not to be a duplicate.
  const uint32_t index = free_tasks_.empty()
                             ? static_cast<uint32_t>(tasks_.size())
                             : free_tasks_.back();
  // Single probe: TryEmplace both detects the duplicate and appends.
  const bool inserted = server.tasks_.TryEmplace(spec.job, index);
  AMPERE_CHECK(inserted) << "job " << spec.job.value()
                         << " already on server " << id.value();
  if (index == tasks_.size()) {
    const bool moves = tasks_.size() == tasks_.capacity();
    tasks_.emplace_back();
    if (moves) {
      sim_->PublishTargetRecords(event_target_, tasks_.data(),
                                 sizeof(TaskRecord));
    }
  } else {
    free_tasks_.pop_back();
  }
  const SimTime now = sim_->now();
  TaskRecord& task = tasks_[index];
  task.server = id;
  task.job = spec.job;
  task.demand = spec.demand;
  task.remaining_work = spec.work;
  task.last_update = now;
  task.seq = sim_->ScheduleTargetAt(
      now + spec.work * (1.0 / server.frequency()), event_target_, index);
  server.allocated_ += spec.demand;
  AMPERE_CHECK(server.capacity_.Fits(server.allocated_));
  RefreshSchedulable(id);

  RefreshServerPower(id, old_power, old_dynamic);
  EnforceServerCap(id);
  EnforceRowCap(server.row());
  return true;
}

void DataCenter::CompleteTask(uint32_t index) {
  TaskRecord& task = tasks_[index];
  const ServerId id = task.server;
  const JobId job = task.job;
  Server& server = servers_[id.index()];
  const size_t slot = server.tasks_.Find(job);
  AMPERE_CHECK(slot != Server::TaskTable::kNotFound);

  double old_power = server.power_watts();
  double old_dynamic = server.dynamic_watts_at_full_freq();

  server.allocated_ -= task.demand;
  AMPERE_CHECK(server.allocated_.NonNegative());
  server.tasks_.EraseAt(slot);
  task.seq = kFreeTask;
  free_tasks_.push_back(index);
  RefreshSchedulable(id);

  RefreshServerPower(id, old_power, old_dynamic);
  EnforceServerCap(id);
  EnforceRowCap(server.row());
  if (completion_listener_) {
    completion_listener_(id, job);
  }
}

void DataCenter::SetFrozen(ServerId id, bool frozen) {
  servers_[id.index()].frozen_ = frozen;
  RefreshSchedulable(id);
}

void DataCenter::SetReserved(ServerId id, bool reserved) {
  servers_[id.index()].reserved_ = reserved;
  RefreshSchedulable(id);
}

void DataCenter::SleepServer(ServerId id) {
  Server& server = servers_[id.index()];
  AMPERE_CHECK(server.tasks_.empty())
      << "cannot sleep server " << id.value() << " with running tasks";
  if (server.asleep_ && !server.waking_) {
    return;
  }
  double old_power = server.power_watts();
  double old_dynamic = server.dynamic_watts_at_full_freq();
  server.wake_completion_.Cancel();  // Abort an in-flight wake, if any.
  server.asleep_ = true;
  server.waking_ = false;
  RefreshSchedulable(id);
  server.sleep_watts_ = sleep_watts_;  // Clear any boot-draw override.
  RefreshServerPower(id, old_power, old_dynamic);
  EnforceRowCap(server.row());
}

void DataCenter::WakeServer(ServerId id) {
  Server& server = servers_[id.index()];
  if (!server.asleep_ || server.waking_) {
    return;
  }
  double old_power = server.power_watts();
  double old_dynamic = server.dynamic_watts_at_full_freq();
  server.waking_ = true;
  RefreshSchedulable(id);
  // Boot draw: the machine burns idle power while it comes up, which is
  // why aggressive consolidation has a power (and latency) cost on wake.
  server.sleep_watts_ = server.idle_watts();
  RefreshServerPower(id, old_power, old_dynamic);
  server.wake_completion_ =
      sim_->ScheduleAfter(wake_latency_, [this, id] {
        Server& s = servers_[id.index()];
        double before_power = s.power_watts();
        double before_dynamic = s.dynamic_watts_at_full_freq();
        s.asleep_ = false;
        s.waking_ = false;
        RefreshSchedulable(id);
        s.sleep_watts_ = sleep_watts_;
        RefreshServerPower(id, before_power, before_dynamic);
        EnforceRowCap(s.row());
      });
  EnforceRowCap(server.row());
}

void DataCenter::RefreshServerPower(ServerId id, double old_power,
                                    double old_dynamic) {
  Server& server = servers_[id.index()];
  // Re-evaluate the power model once per mutation; every reader between now
  // and the next mutation (telemetry, capping, ranking) gets the cached
  // value — bit-identical to evaluating the model on demand.
  server.RecomputePowerCache();
  double power_delta = server.power_watts() - old_power;
  double dynamic_delta = server.dynamic_watts_at_full_freq() - old_dynamic;
  racks_[server.rack().index()].power_watts += power_delta;
  RowState& row = rows_[server.row().index()];
  row.power_watts += power_delta;
  row.dynamic_full_sum_watts += dynamic_delta;
  total_power_watts_ += power_delta;
  // Each incremental fold can introduce one rounding error; snap the
  // aggregates back to the exact sums periodically so drift stays bounded
  // regardless of run length. The trigger is a pure function of the event
  // sequence, so resummation points are deterministic.
  if (++power_mutations_since_resum_ >= kResumIntervalMutations) {
    ResummatePowerAggregates();
  }
}

double DataCenter::ExactRackPowerWatts(RackId id) const {
  // Linear scan of the SoA power array over the rack's contiguous index
  // range — same elements in the same ascending order as the per-server
  // walk this replaces (server ids are row-major), so the sum is
  // bit-identical.
  const RackState& rack = racks_[id.index()];
  return span_kernels::SumSequential(
      soa_power_watts_.data() + rack.server_range.begin,
      rack.server_range.size());
}

double DataCenter::ExactRowPowerWatts(RowId id) const {
  // Summed rack-by-rack (not server-by-server) so the value matches what
  // ResummatePowerAggregates writes into the row aggregate bit-for-bit.
  double sum = 0.0;
  for (RackId rid : rows_[id.index()].racks) {
    sum += ExactRackPowerWatts(rid);
  }
  return sum;
}

double DataCenter::ExactRowDynamicFullWatts(RowId id) const {
  const RowState& row = rows_[id.index()];
  return span_kernels::SumSequential(
      soa_dynamic_full_watts_.data() + row.server_range.begin,
      row.server_range.size());
}

double DataCenter::ExactTotalPowerWatts() const {
  double sum = 0.0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    sum += ExactRowPowerWatts(RowId(static_cast<int32_t>(r)));
  }
  return sum;
}

void DataCenter::ResummatePowerAggregates() {
  // Streams the SoA arrays directly: server ids are assigned row-major, so
  // each rack/row owns a contiguous index range and the per-rack inner loop
  // is a linear scan over one cache-resident span instead of a pointer-chase
  // across Server objects.
  //
  // Summation order: servers in ascending id within each rack, racks in
  // ascending order within the row, rows in order for the total.
  const double* power = soa_power_watts_.data();
  const double* dynamic_full = soa_dynamic_full_watts_.data();
  double total = 0.0;
  for (RowState& row : rows_) {
    double row_sum = 0.0;
    for (RackId rid : row.racks) {
      RackState& rack = racks_[rid.index()];
      // SumSequential IS the historical left-to-right order the goldens
      // pin; see span_kernels.h.
      const double rack_sum = span_kernels::SumSequential(
          power + rack.server_range.begin, rack.server_range.size());
      rack.power_watts = rack_sum;
      row_sum += rack_sum;
    }
    row.power_watts = row_sum;
    row.dynamic_full_sum_watts = span_kernels::SumSequential(
        dynamic_full + row.server_range.begin, row.server_range.size());
    total += row_sum;
  }
  total_power_watts_ = total;
  power_mutations_since_resum_ = 0;
}

void DataCenter::SetServerFrequency(ServerId id, double freq) {
  Server& server = servers_[id.index()];
  AMPERE_CHECK(freq > 0.0 && freq <= 1.0);
  if (server.frequency_ == freq) {
    return;
  }
  double old_power = server.power_watts();
  double old_dynamic = server.dynamic_watts_at_full_freq();
  RowState& row = rows_[server.row().index()];
  const SimTime now = sim_->now();
  if (server.frequency_ == 1.0 && freq < 1.0) {
    if (row.capped_server_count == 0) {
      row.capped_since = now;
    }
    ++row.capped_server_count;
  } else if (server.frequency_ < 1.0 && freq == 1.0) {
    AMPERE_CHECK(row.capped_server_count > 0);
    --row.capped_server_count;
    if (row.capped_server_count == 0) {
      row.capped_total += now - row.capped_since;
    }
  }
  // The walk is in task-table insertion order (placement order), so the
  // rescheduled completions' seqs, and thus their tie-breaks, are
  // deterministic. The arithmetic is ScheduleAfter's: now + wall.
  server.tasks_.ForEachRecord([&](uint32_t index) {
    TaskRecord& task = tasks_[index];
    const SimTime consumed = (now - task.last_update) * server.frequency_;
    task.remaining_work =
        std::max(SimTime(), task.remaining_work - consumed);
    task.last_update = now;
    sim_->RetireTargetEvent();
    // A task whose remaining work rounds to zero completes at `now`, still
    // strictly after this event (its seq is newer).
    task.seq = sim_->ScheduleTargetAt(
        now + task.remaining_work * (1.0 / freq), event_target_, index);
  });
  server.frequency_ = freq;
  RefreshServerPower(id, old_power, old_dynamic);
}

void DataCenter::EnforceRowCap(RowId row_id) {
  RowState& row = rows_[row_id.index()];
  SimTime now = sim_->now();
  // Breaker sees the true (post-capping) draw.
  if (row.breaker.Observe(now, row.power_watts, row.budget_watts)) {
    AMPERE_TIMELINE_D(obs_domain_, now, obs::TimelineEventType::kBreakerTrip,
                      row.power_watts, row.budget_watts,
                      static_cast<uint64_t>(row_id.value()));
  }
  if (!capping_enabled_ || capping_mode_ != CappingMode::kRowUniform) {
    return;
  }
  CapDecision decision =
      ComputeRowCap(row.idle_sum_watts, row.dynamic_full_sum_watts,
                    row.capping_budget_watts, ladder_);
  if (decision.throttle == row.throttle) {
    return;
  }
  AMPERE_LOG(kDebug) << "row " << row_id.value() << " throttle "
                     << row.throttle << " -> " << decision.throttle;
  row.throttle = decision.throttle;
  for (ServerId id : row.servers) {
    SetServerFrequency(id, decision.throttle);
  }
  if (row.breaker.Observe(now, row.power_watts, row.budget_watts)) {
    AMPERE_TIMELINE_D(obs_domain_, now, obs::TimelineEventType::kBreakerTrip,
                      row.power_watts, row.budget_watts,
                      static_cast<uint64_t>(row_id.value()));
  }
}

void DataCenter::EnforceServerCap(ServerId id) {
  if (!capping_enabled_ || capping_mode_ != CappingMode::kPerServer) {
    return;
  }
  const Server& server = servers_[id.index()];
  const RowState& row = rows_[server.row().index()];
  double cap = PerServerCapWatts(row);
  double idle = server.idle_watts();
  double dynamic_full = server.dynamic_watts_at_full_freq();
  double freq;
  if (idle + dynamic_full <= cap) {
    freq = 1.0;
  } else if (cap <= idle || dynamic_full <= 0.0) {
    freq = ladder_.min_multiplier();
  } else {
    freq = ladder_.ClampDown((cap - idle) / dynamic_full);
  }
  SetServerFrequency(id, freq);
}

void DataCenter::SetCappingEnabled(bool enabled) {
  capping_enabled_ = enabled;
  for (size_t r = 0; r < rows_.size(); ++r) {
    RowId row_id(static_cast<int32_t>(r));
    RowState& row = rows_[r];
    if (enabled) {
      EnforceRowCap(row_id);
      if (capping_mode_ == CappingMode::kPerServer) {
        for (ServerId id : row.servers) {
          EnforceServerCap(id);
        }
      }
    } else {
      // Release all throttles (clock bookkeeping happens per server inside
      // SetServerFrequency).
      row.throttle = 1.0;
      for (ServerId id : row.servers) {
        SetServerFrequency(id, 1.0);
      }
    }
  }
}

void DataCenter::SetRowCappingBudget(RowId id, double watts) {
  AMPERE_CHECK(watts > 0.0);
  rows_[id.index()].capping_budget_watts = watts;
  EnforceRowCap(id);
  if (capping_enabled_ && capping_mode_ == CappingMode::kPerServer) {
    for (ServerId sid : rows_[id.index()].servers) {
      EnforceServerCap(sid);
    }
  }
}

double DataCenter::FractionOfServersCapped(RowId id) const {
  const RowState& row = rows_[id.index()];
  return static_cast<double>(row.capped_server_count) /
         static_cast<double>(row.servers.size());
}

SimTime DataCenter::row_capped_time(RowId id) const {
  const RowState& row = rows_[id.index()];
  SimTime total = row.capped_total;
  if (row.capped_server_count > 0) {
    total += sim_->now() - row.capped_since;
  }
  return total;
}

double DataCenter::PowerOfServers(std::span<const ServerId> ids) const {
  double sum = 0.0;
  for (ServerId id : ids) {
    sum += servers_[id.index()].power_watts();
  }
  return sum;
}

double DataCenter::total_budget_watts() const {
  double sum = 0.0;
  for (const RowState& row : rows_) {
    sum += row.budget_watts;
  }
  return sum;
}

bool DataCenter::AnyBreakerTripped() const {
  return std::any_of(rows_.begin(), rows_.end(),
                     [](const RowState& r) { return r.breaker.tripped(); });
}

}  // namespace ampere
