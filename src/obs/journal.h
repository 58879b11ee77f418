// DecisionJournal: a bounded, queryable audit log of controller decisions.
//
// The paper's production daemon "logs controller decisions for audit". This
// is that log, structured: one DecisionRecord per controller minute-tick per
// power domain, capturing everything Algorithm 1 saw and chose — observed row
// power against budget, the hourly E_t margin, the freeze ratio u_t it
// solved for, how many servers actually froze or thawed, the r_stable
// hysteresis pool state, and whether the max_freeze_ratio safety net capped
// the solution. The next tick backfills the *realized* next-minute power, so
// every resolved record carries a (predicted, realized) pair for the
// f(u) = kr·u effect model.
//
// Records live in a bounded ring buffer (oldest evicted first) addressed by
// a monotonically increasing sequence number that survives eviction — seq i
// is either live (SetRealized finds it) or provably gone, never silently
// reused. On top of
// the ring:
//   - Query(): time-range + optional-domain scans,
//   - Summarize(): per-domain tick/violation/u/p aggregates using the exact
//     summation order of GroupReport::Finalize, so a journal kept alongside
//     a ControlledExperiment reproduces Table-2 counts bit-for-bit,
//   - RollingModelRmse() / RollingEtMarginUtilization(): model-drift
//     statistics over the last N resolved records, which the controller
//     re-exports as obs gauges each tick,
//   - ToCsv()/ToJson() with a ParseCsv() inverse for offline analysis.
//
// Thread-compatibility: like the controller that feeds it, the journal is
// confined to one thread (a harness run); it does no locking of its own.

#ifndef SRC_OBS_JOURNAL_H_
#define SRC_OBS_JOURNAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"

namespace ampere {
namespace obs {

// How much a controller tick had to degrade because of faulty telemetry.
enum class DegradedMode : uint32_t {
  kNone = 0,        // Fresh reading; normal Algorithm-1 tick.
  kStaleFallback = 1,  // Reading older than the control interval: the tick
                       // used last-known-good power with a widened E_t.
  kBlackoutSkip = 2,   // Domain feed blacked out (or never sampled): the
                       // tick held the frozen set rather than guess.
};
struct DecisionRecord {
  uint64_t seq = 0;       // Assigned by DecisionJournal::Append.
  SimTime time;           // Tick time.
  std::string domain;     // Power-domain (group) name.

  // What the controller observed.
  double observed_watts = 0.0;     // Latest aggregated domain power.
  double budget_watts = 0.0;       // Domain power budget (PM · budget).
  double normalized_power = 0.0;   // observed / budget = P_t / PM.
  double et = 0.0;                 // Hourly margin E_t (normalized).
  bool violation = false;          // normalized_power > 1.0.

  // What it predicted and what happened. predicted_next is the one-step
  // model bound P_t + E_t − kr·u_t; realized_next is filled in by the next
  // tick for the same domain (realized_valid says whether it arrived).
  double predicted_next = 0.0;
  double realized_next = 0.0;
  bool realized_valid = false;

  // What it chose and what that did.
  double u = 0.0;           // Chosen freeze ratio u_t ∈ [0, max_freeze].
  bool cap_engaged = false; // Safety net: u hit max_freeze_ratio.
  uint32_t n_freeze = 0;    // Target frozen-server count ⌈u·n⌉.
  uint32_t n_servers = 0;   // Domain population.
  uint32_t freeze_ops = 0;  // Servers newly frozen this tick.
  uint32_t unfreeze_ops = 0;  // Servers newly thawed this tick.

  // r_stable hysteresis state at selection time.
  uint32_t pool_size = 0;     // Candidate pool after the r_stable filter.
  double p_threshold = 0.0;   // Power threshold defining the pool (watts).

  // Fault/degradation state (all zero on a healthy tick, so fault-free
  // journals are unchanged apart from the wider schema).
  DegradedMode degraded = DegradedMode::kNone;
  int64_t reading_age_us = 0;  // Age of the power reading the tick used.
  double et_effective = 0.0;   // E_t after stale widening (== et when fresh).
  uint32_t rpc_failures = 0;   // Failed freeze/unfreeze RPC attempts.
  uint32_t rpc_giveups = 0;    // Ops abandoned after retry exhaustion.
};

// Per-domain aggregate over journal records, summed in append order with the
// same arithmetic as GroupReport::Finalize (Table 2 columns). u_mean / u_max
// aggregate the realized freeze ratio n_freeze / n_servers — the quantity
// MinutePoint.freeze_ratio records — not the solved u_t in DecisionRecord::u.
struct JournalDomainSummary {
  std::string domain;
  uint64_t ticks = 0;
  uint64_t violations = 0;
  uint64_t capped_ticks = 0;
  double u_mean = 0.0;
  double u_max = 0.0;
  double p_mean = 0.0;  // Mean normalized power.
  double p_max = 0.0;   // Max normalized power.
  // Fault bookkeeping: ticks that ran degraded, split by mode, plus the
  // RPC adversity the domain absorbed.
  uint64_t degraded_ticks = 0;   // Any mode != kNone.
  uint64_t blackout_skips = 0;   // Mode == kBlackoutSkip.
  uint64_t rpc_failures = 0;     // Summed failed RPC attempts.
  uint64_t rpc_giveups = 0;      // Summed retry-exhausted operations.
};

// Whole-journal summary: per-domain rows (name-sorted) plus the totals the
// harness surfaces per run.
struct JournalSummary {
  uint64_t records = 0;        // Live records at summary time.
  uint64_t total_appended = 0; // Including evicted.
  std::vector<JournalDomainSummary> domains;

  const JournalDomainSummary* FindDomain(std::string_view name) const;
  // Compact JSON object, deterministic field order.
  std::string ToJson() const;
};

class DecisionJournal {
 public:
  // Capacity must be > 0; the ring holds the most recent `capacity` records.
  // 4096 comfortably covers a fig10-style day (1440 minute-ticks per domain,
  // two domains) without eviction.
  explicit DecisionJournal(size_t capacity = 4096);

  size_t capacity() const { return capacity_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  uint64_t total_appended() const { return next_seq_; }

  // Appends a record (evicting the oldest if full) and returns its assigned
  // sequence number. `record.seq` is overwritten.
  uint64_t Append(DecisionRecord record);

  // Backfills realized next-minute power on an earlier record. Returns false
  // if the record was already evicted.
  bool SetRealized(uint64_t seq, double realized_next);

  // All live records with begin <= time < end, in append order. An empty
  // `domain` matches every domain.
  std::vector<DecisionRecord> Query(SimTime begin, SimTime end,
                                    std::string_view domain = {}) const;

  // Most recent `n` live records (optionally domain-filtered), oldest first.
  std::vector<DecisionRecord> Tail(size_t n,
                                   std::string_view domain = {}) const;

  // Aggregates live records per domain in append order; replicates the
  // GroupReport::Finalize summation so the counts line up bit-for-bit with
  // a ControlledExperiment over the same window.
  JournalSummary Summarize() const;

  // Root-mean-square error of predicted vs realized normalized power over
  // the last `window` *resolved* records for `domain` (empty = all
  // domains). nullopt if no resolved records exist.
  std::optional<double> RollingModelRmse(size_t window,
                                         std::string_view domain = {}) const;

  // Mean E_t margin utilization over the same window: for each resolved
  // record, 1 + (realized − predicted) / E_t — i.e. the fraction of the
  // hourly margin the next minute actually consumed (1.0 = exactly the
  // model bound, > 1 = hotter than predicted). Records with E_t == 0 are
  // skipped. nullopt if nothing qualifies.
  std::optional<double> RollingEtMarginUtilization(
      size_t window, std::string_view domain = {}) const;

  // CSV with a fixed header (see kCsvHeader); doubles use shortest
  // round-trip formatting so ParseCsv(ToCsv()) is lossless.
  static const char* CsvHeader();
  std::string ToCsv() const;
  // JSON array of record objects, deterministic field order.
  std::string ToJson() const;

  // Parses ToCsv() output back into records (header required). Returns
  // nullopt on malformed input.
  static std::optional<std::vector<DecisionRecord>> ParseCsv(
      std::string_view csv);

 private:
  size_t IndexOfSeq(uint64_t seq) const;  // records_.size() if not live.

  const size_t capacity_;
  uint64_t next_seq_ = 0;      // Seq of the next Append.
  size_t head_ = 0;            // Ring index of the oldest live record.
  std::vector<DecisionRecord> records_;  // Ring storage, size <= capacity_.
};

// One record as a compact JSON object, field-for-field identical to an
// element of DecisionJournal::ToJson() — shared with the flight recorder's
// postmortem artifacts so journal tails parse the same everywhere.
std::string DecisionRecordToJson(const DecisionRecord& record);
// Appends the same object to `out` without intermediate allocation.
void AppendDecisionRecordJson(std::string& out, const DecisionRecord& record);

}  // namespace obs
}  // namespace ampere

#endif  // SRC_OBS_JOURNAL_H_
