// DecisionJournal: ring-buffer eviction, sequence addressing, range query,
// CSV/JSON round-trip, drift statistics, and the audit cross-check — journal
// counts match GroupReport violations/u on a small closed loop.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/obs/journal.h"

namespace ampere {
namespace obs {
namespace {

DecisionRecord MakeRecord(double minute, const std::string& domain,
                          double p, double u) {
  DecisionRecord r;
  r.time = SimTime::Minutes(minute);
  r.domain = domain;
  r.observed_watts = p * 1000.0;
  r.budget_watts = 1000.0;
  r.normalized_power = p;
  r.et = 0.02;
  r.violation = p > 1.0;
  r.predicted_next = p + 0.02 - 0.05 * u;
  r.u = u;
  r.cap_engaged = u >= 0.5;
  r.n_servers = 100;
  r.n_freeze = static_cast<uint32_t>(u * 100.0);
  r.pool_size = r.n_freeze;
  r.p_threshold = 200.0;
  return r;
}

TEST(DecisionJournalTest, AppendAssignsMonotonicSeqs) {
  DecisionJournal journal(8);
  EXPECT_EQ(journal.Append(MakeRecord(1, "row", 0.9, 0.0)), 0u);
  EXPECT_EQ(journal.Append(MakeRecord(2, "row", 0.95, 0.1)), 1u);
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.total_appended(), 2u);
  const std::vector<DecisionRecord> live = journal.Tail(8);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_DOUBLE_EQ(live[0].normalized_power, 0.9);
}

TEST(DecisionJournalTest, RingEvictsOldestAndKeepsSeqAddressing) {
  DecisionJournal journal(4);
  for (int i = 0; i < 10; ++i) {
    journal.Append(MakeRecord(i, "row", 0.9, 0.0));
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.total_appended(), 10u);
  // Seqs 0..5 are evicted: backfilling one reports failure. Seqs 6..9 are
  // live, in append order, and a backfill lands on exactly its record.
  for (uint64_t seq = 0; seq < 6; ++seq) {
    EXPECT_FALSE(journal.SetRealized(seq, 0.97)) << seq;
  }
  EXPECT_FALSE(journal.SetRealized(10, 0.97));  // Never appended.
  EXPECT_TRUE(journal.SetRealized(7, 0.97));
  const std::vector<DecisionRecord> live = journal.Tail(10);
  ASSERT_EQ(live.size(), 4u);
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].seq, 6 + i);
    EXPECT_EQ(live[i].realized_valid, live[i].seq == 7) << live[i].seq;
  }
}

TEST(DecisionJournalTest, QueryFiltersByTimeRangeAndDomain) {
  DecisionJournal journal(32);
  for (int i = 0; i < 10; ++i) {
    journal.Append(MakeRecord(i, i % 2 == 0 ? "even" : "odd", 0.9, 0.0));
  }
  // [3, 7) minutes, any domain -> minutes 3,4,5,6.
  auto window = journal.Query(SimTime::Minutes(3), SimTime::Minutes(7));
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().time, SimTime::Minutes(3));
  EXPECT_EQ(window.back().time, SimTime::Minutes(6));
  // Same window, "even" only -> minutes 4, 6.
  auto evens =
      journal.Query(SimTime::Minutes(3), SimTime::Minutes(7), "even");
  ASSERT_EQ(evens.size(), 2u);
  EXPECT_EQ(evens[0].time, SimTime::Minutes(4));
  EXPECT_EQ(evens[1].time, SimTime::Minutes(6));

  auto tail = journal.Tail(3, "odd");
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.back().time, SimTime::Minutes(9));
  EXPECT_LT(tail.front().time, tail.back().time);  // Oldest first.
}

TEST(DecisionJournalTest, CsvRoundTripIsLossless) {
  DecisionJournal journal(16);
  for (int i = 0; i < 5; ++i) {
    DecisionRecord r =
        MakeRecord(i, "row", 0.9 + 0.031 * i, 0.1 * i);
    r.freeze_ops = static_cast<uint32_t>(i);
    journal.Append(r);
    if (i > 0) {
      journal.SetRealized(static_cast<uint64_t>(i - 1), 0.9 + 0.031 * i);
    }
  }
  std::string csv = journal.ToCsv();
  auto parsed = DecisionJournal::ParseCsv(csv);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 5u);
  auto live = journal.Query(SimTime(), SimTime::Hours(1));
  for (size_t i = 0; i < parsed->size(); ++i) {
    const DecisionRecord& a = live[i];
    const DecisionRecord& b = (*parsed)[i];
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.observed_watts, b.observed_watts);  // Bit-exact round trip.
    EXPECT_EQ(a.normalized_power, b.normalized_power);
    EXPECT_EQ(a.predicted_next, b.predicted_next);
    EXPECT_EQ(a.realized_next, b.realized_next);
    EXPECT_EQ(a.realized_valid, b.realized_valid);
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.n_freeze, b.n_freeze);
    EXPECT_EQ(a.freeze_ops, b.freeze_ops);
  }
  EXPECT_FALSE(DecisionJournal::ParseCsv("not,a,journal\n").has_value());
}

TEST(DecisionJournalTest, JsonExportContainsRecords) {
  DecisionJournal journal(8);
  journal.Append(MakeRecord(1, "row", 1.01, 0.3));
  std::string json = journal.ToJson();
  EXPECT_NE(json.find("\"domain\":\"row\""), std::string::npos);
  EXPECT_NE(json.find("\"violation\":true"), std::string::npos);
  EXPECT_NE(json.find("\"n_servers\":100"), std::string::npos);
}

TEST(DecisionJournalTest, SummarizeAggregatesPerDomain) {
  DecisionJournal journal(32);
  journal.Append(MakeRecord(1, "a", 0.9, 0.0));
  journal.Append(MakeRecord(2, "a", 1.05, 0.5));
  journal.Append(MakeRecord(3, "b", 0.8, 0.0));

  JournalSummary summary = journal.Summarize();
  EXPECT_EQ(summary.records, 3u);
  ASSERT_EQ(summary.domains.size(), 2u);
  const JournalDomainSummary* a = summary.FindDomain("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ticks, 2u);
  EXPECT_EQ(a->violations, 1u);
  EXPECT_EQ(a->capped_ticks, 1u);
  // u aggregates the realized ratio n_freeze / n_servers.
  EXPECT_DOUBLE_EQ(a->u_mean, (0.0 + 50.0 / 100.0) / 2.0);
  EXPECT_DOUBLE_EQ(a->u_max, 0.5);
  EXPECT_DOUBLE_EQ(a->p_max, 1.05);
  EXPECT_NE(summary.ToJson().find("\"violations\":1"), std::string::npos);
}

TEST(DecisionJournalTest, DriftStatisticsOverResolvedRecords) {
  DecisionJournal journal(32);
  // Two resolved records with known prediction errors +0.01 and -0.03.
  DecisionRecord r1 = MakeRecord(1, "row", 0.9, 0.0);
  r1.predicted_next = 0.92;
  uint64_t s1 = journal.Append(r1);
  journal.SetRealized(s1, 0.93);
  DecisionRecord r2 = MakeRecord(2, "row", 0.93, 0.0);
  r2.predicted_next = 0.95;
  uint64_t s2 = journal.Append(r2);
  journal.SetRealized(s2, 0.92);
  // One unresolved record: must not contribute.
  journal.Append(MakeRecord(3, "row", 0.92, 0.0));

  auto rmse = journal.RollingModelRmse(10, "row");
  ASSERT_TRUE(rmse.has_value());
  EXPECT_NEAR(*rmse, std::sqrt((0.01 * 0.01 + 0.03 * 0.03) / 2.0), 1e-12);

  // Margin utilization: 1 + (realized - predicted) / et, et = 0.02.
  auto util = journal.RollingEtMarginUtilization(10, "row");
  ASSERT_TRUE(util.has_value());
  EXPECT_NEAR(*util, ((1.0 + 0.01 / 0.02) + (1.0 - 0.03 / 0.02)) / 2.0,
              1e-12);

  EXPECT_FALSE(journal.RollingModelRmse(10, "nope").has_value());
}

// --- The audit cross-check on a real closed loop -------------------------

// A small controlled experiment: the journal the controller kept must
// reproduce the GroupReport's Table-2 quantities bit-for-bit, because both
// paths divide the same monitor watts by the same budget and count the same
// realized freeze ratio.
TEST(DecisionJournalTest, ClosedLoopSummaryMatchesGroupReport) {
  ExperimentConfig config;
  config.seed = 7;
  config.topology.num_rows = 1;
  config.topology.racks_per_row = 2;
  config.topology.servers_per_rack = 30;  // 60 servers.
  config.over_provision_ratio = 0.25;
  config.workload.arrivals.base_rate_per_min = ArrivalRateForNormalizedPower(
      config.topology, config.workload, 0.99, 0.25);
  config.controller.et = EtEstimator::Constant(0.02);
  config.warmup = SimTime::Hours(1);
  config.duration = SimTime::Hours(3);

  ExperimentResult result = RunExperimentToResult(config);
  const JournalDomainSummary* d = result.journal.FindDomain("experiment");
  ASSERT_NE(d, nullptr);
  const GroupReport& report = result.experiment;
  ASSERT_GT(report.minutes.size(), 0u);
  EXPECT_EQ(d->ticks, report.minutes.size());
  EXPECT_EQ(d->violations, static_cast<uint64_t>(report.violations));
  EXPECT_EQ(d->u_mean, report.u_mean);  // Bit-exact, not approximate.
  EXPECT_EQ(d->u_max, report.u_max);
  EXPECT_EQ(d->p_mean, report.p_mean);
  EXPECT_EQ(d->p_max, report.p_max);
  // The control group runs no controller, so no journal domain exists
  // for it.
  EXPECT_EQ(result.journal.FindDomain("control"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace ampere
