#include "src/telemetry/timeseries_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace ampere {
namespace {

std::vector<double> ValuesOf(const TimeSeriesDb& db, std::string_view name) {
  std::vector<double> values;
  db.SeriesStitched(name).ForEachPoint(
      [&values](const TimePoint& p) { values.push_back(p.value); });
  return values;
}

TEST(TimeSeriesDbTest, AppendAndReadBack) {
  TimeSeriesDb db;
  db.Append("row/0/power", SimTime::Minutes(1), 100.0);
  db.Append("row/0/power", SimTime::Minutes(2), 110.0);
  auto series = db.SeriesStitched("row/0/power").Materialize();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].time, SimTime::Minutes(1));
  EXPECT_DOUBLE_EQ(series[1].value, 110.0);
}

TEST(TimeSeriesDbTest, MissingSeriesIsEmpty) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.SeriesStitched("nope").empty());
  EXPECT_TRUE(ValuesOf(db, "nope").empty());
  EXPECT_FALSE(db.Latest("nope").has_value());
}

TEST(TimeSeriesDbTest, OutOfOrderAppendThrows) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(5), 1.0);
  EXPECT_THROW(db.Append("s", SimTime::Minutes(4), 2.0), CheckFailure);
  // Equal timestamps are allowed (same-minute resample).
  EXPECT_NO_THROW(db.Append("s", SimTime::Minutes(5), 3.0));
}

TEST(TimeSeriesDbTest, LatestReturnsNewest) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(1), 1.0);
  db.Append("s", SimTime::Minutes(2), 2.0);
  auto latest = db.Latest("s");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->value, 2.0);
}

TEST(TimeSeriesDbTest, QueryRangeInclusive) {
  TimeSeriesDb db;
  for (int m = 0; m < 10; ++m) {
    db.Append("s", SimTime::Minutes(m), static_cast<double>(m));
  }
  auto range =
      db.QueryStitched("s", SimTime::Minutes(3), SimTime::Minutes(6))
          .Materialize();
  ASSERT_EQ(range.size(), 4u);
  EXPECT_DOUBLE_EQ(range.front().value, 3.0);
  EXPECT_DOUBLE_EQ(range.back().value, 6.0);
}

TEST(TimeSeriesDbTest, QueryOutsideRangeEmpty) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(5), 1.0);
  EXPECT_TRUE(
      db.QueryStitched("s", SimTime::Minutes(6), SimTime::Minutes(9)).empty());
  EXPECT_TRUE(
      db.QueryStitched("s", SimTime::Minutes(0), SimTime::Minutes(4)).empty());
}

TEST(TimeSeriesDbTest, ValuesExtractsInOrder) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(1), 5.0);
  db.Append("s", SimTime::Minutes(2), 7.0);
  EXPECT_EQ(ValuesOf(db, "s"), (std::vector<double>{5.0, 7.0}));
}

TEST(TimeSeriesDbTest, SeriesNamesSortedAndCounted) {
  TimeSeriesDb db;
  db.Append("b", SimTime(), 1.0);
  db.Append("a", SimTime(), 1.0);
  db.Append("a", SimTime::Minutes(1), 2.0);
  auto names = db.SeriesNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(db.TotalPoints(), 3u);
}

// --- Frames ---------------------------------------------------------------

TEST(TimeSeriesDbFrameTest, RowsReadBackPerColumnWithAbsentCellsSkipped) {
  TimeSeriesDb db;
  const SeriesId a = db.Intern("a");
  const SeriesId b = db.Intern("b");
  const SeriesId members[] = {a, b};
  const FrameId frame = db.RegisterFrame(members);
  const double row1[] = {1.0, 10.0};
  const double row2[] = {2.0, 20.0};
  const uint8_t b_absent[] = {0, 1};
  db.AppendFrame(frame, SimTime::Minutes(1), row1);
  db.AppendFrame(frame, SimTime::Minutes(2), row2, b_absent);
  EXPECT_EQ(ValuesOf(db, "a"), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(ValuesOf(db, "b"), (std::vector<double>{10.0}));
  EXPECT_EQ(db.Latest(b)->time, SimTime::Minutes(1));
  EXPECT_EQ(db.TotalPoints(), 3u);
  // A member of a wider frame is not appendable on its own.
  EXPECT_THROW(db.Append(a, SimTime::Minutes(3), 3.0), CheckFailure);
  // The stamp order is a per-frame contract.
  EXPECT_THROW(db.AppendFrame(frame, SimTime::Minutes(1), row1), CheckFailure);
}

TEST(TimeSeriesDbFrameTest, RegisterFrameTakesOnlyEmptySeries) {
  TimeSeriesDb db;
  const SeriesId reserved = db.Intern("reserved");
  db.ReservePoints(reserved, 64);  // An empty width-1 frame: re-homed.
  const SeriesId written = db.Intern("written");
  db.Append(written, SimTime::Minutes(1), 1.0);
  const SeriesId ok[] = {reserved};
  EXPECT_NO_THROW(db.RegisterFrame(ok));
  const SeriesId has_points[] = {db.Intern("fresh"), written};
  EXPECT_THROW(db.RegisterFrame(has_points), CheckFailure);
  const SeriesId twice[] = {db.Intern("x"), db.Intern("x")};
  EXPECT_THROW(db.RegisterFrame(twice), CheckFailure);
}

// Whether `v` is a whole number in [0, 65535] with no sign bit: the rule
// that keeps a frame's cells in 16 bits. Written independently of the db's
// kernel.
bool WholeExact(double v) {
  return v >= 0.0 && v <= 65535.0 && std::floor(v) == v && !std::signbit(v);
}

// Whether `v` survives a float round trip bit for bit: the rule that keeps
// a frame's cells in float. Written independently of the db's kernel.
bool FloatExact(double v) {
  const double float_max = std::numeric_limits<float>::max();
  const double float_min_normal = std::numeric_limits<float>::min();
  if (!std::isfinite(v) || std::fabs(v) > float_max ||
      (v != 0.0 && std::fabs(v) < float_min_normal)) {
    return false;
  }
  const double back = static_cast<double>(static_cast<float>(v));
  return std::memcmp(&back, &v, sizeof(double)) == 0;
}

// Bytes per cell of a frame that has held `v`.
size_t CellBytes(double v) {
  return WholeExact(v) ? 2 : (FloatExact(v) ? 4 : 8);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TimeSeriesDbFrameTest, EdgeValuesReadBackBitIdentical) {
  const double kTwo24 = 16777216.0;
  double nan_with_payload;
  const uint64_t nan_bits = 0x7ff8'0000'dead'beefULL;
  std::memcpy(&nan_with_payload, &nan_bits, sizeof(double));
  const double edges[] = {
      0.0,
      65535.0,
      65536.0,
      -1.0,
      -0.0,
      0.5,
      1e300,
      kTwo24,
      kTwo24 + 1.0,
      static_cast<double>(std::numeric_limits<float>::max()),
      1e39,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      nan_with_payload,
      std::numeric_limits<double>::denorm_min(),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
  };
  // Bytes per cell of the frame once it holds the edge value.
  const size_t bytes[] = {2, 2, 4, 4, 4, 4, 8, 4, 8, 4,
                          8, 8, 8, 8, 8, 8, 8};
  static_assert(std::size(bytes) == std::size(edges));
  for (size_t e = 0; e < std::size(edges); ++e) {
    const double edge = edges[e];
    SCOPED_TRACE("edge " + std::to_string(e));
    EXPECT_EQ(CellBytes(edge), bytes[e]);
    TimeSeriesDb db;
    const SeriesId members[] = {db.Intern("whole"), db.Intern("edge")};
    const FrameId frame = db.RegisterFrame(members);
    db.ReserveRows(frame, 8);
    // Three whole-watt rows, then the edge value in every later row.
    for (int m = 0; m < 6; ++m) {
      const double row[] = {100.0 + m, m < 3 ? 7.0 : edge};
      db.AppendFrame(frame, SimTime::Minutes(m), row);
    }
    // 6 rows of 2 cells, at 2 bytes each while every cell is a 16-bit
    // whole number, and at 4 or 8 once the edge value widened the frame.
    EXPECT_EQ(db.HotValueBytes(), 12 * bytes[e]);
    const std::vector<TimePoint> edge_points =
        db.QueryStitched("edge", SimTime::Minutes(3), SimTime::Minutes(5))
            .Materialize();
    ASSERT_EQ(edge_points.size(), 3u);
    for (const TimePoint& p : edge_points) {
      EXPECT_TRUE(SameBits(p.value, edge));
    }
    EXPECT_TRUE(SameBits(db.Latest("edge")->value, edge));
    const std::vector<double> whole = ValuesOf(db, "whole");
    ASSERT_EQ(whole.size(), 6u);
    for (int m = 0; m < 6; ++m) {
      EXPECT_TRUE(SameBits(whole[static_cast<size_t>(m)], 100.0 + m));
    }
  }
}

TEST(TimeSeriesDbFrameTest, AbsentInexactCellDoesNotWiden) {
  TimeSeriesDb db;
  const SeriesId members[] = {db.Intern("a"), db.Intern("b")};
  const FrameId frame = db.RegisterFrame(members);
  const uint8_t b_absent[] = {0, 1};
  const double dark[] = {1.0, 0.1};
  db.AppendFrame(frame, SimTime::Minutes(1), dark, b_absent);
  const double nan_dark[] = {2.0, std::numeric_limits<double>::quiet_NaN()};
  db.AppendFrame(frame, SimTime::Minutes(2), nan_dark, b_absent);
  EXPECT_EQ(db.HotValueBytes(), 4 * sizeof(uint16_t));
  EXPECT_EQ(ValuesOf(db, "a"), (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(ValuesOf(db, "b").empty());
  // The same inexact value, present, widens the frame; the earlier rows
  // convert exactly.
  const double lit[] = {3.0, 0.1};
  db.AppendFrame(frame, SimTime::Minutes(3), lit);
  EXPECT_EQ(db.HotValueBytes(), 6 * sizeof(double));
  EXPECT_EQ(ValuesOf(db, "a"), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(ValuesOf(db, "b"), (std::vector<double>{0.1}));
}

// A row that fits neither 16 bits nor float takes a 16-bit frame to double
// in one step; a row that fits float takes it there. (The allocation side
// of the contract, at most one allocation on the widening row after
// ReserveRows, is hard-asserted by the BM_TimeSeriesAppendFrame* benches.)
TEST(TimeSeriesDbFrameTest, WideningGoesStraightToTheWidthTheRowNeeds) {
  for (const bool via_float : {true, false}) {
    SCOPED_TRACE(via_float ? "16 to float to double" : "16 to double");
    TimeSeriesDb db;
    const SeriesId members[] = {db.Intern("a"), db.Intern("b")};
    const FrameId frame = db.RegisterFrame(members);
    db.ReserveRows(frame, 6);
    std::vector<double> want_b;
    for (int r = 0; r < 6; ++r) {
      // Rows 2-3 carry a whole number past 16 bits (or stay 16-bit), and
      // rows 4-5 a value neither 16 bits nor float holds.
      double b = 1000.0 + r;
      if (r >= 4) {
        b = 0.1;
      } else if (r >= 2 && via_float) {
        b = 70000.0;
      }
      const double row[] = {static_cast<double>(r), b};
      db.AppendFrame(frame, SimTime::Minutes(r), row);
      const size_t bytes = r < 2 ? 2 : (r < 4 ? (via_float ? 4 : 2) : 8);
      EXPECT_EQ(db.HotValueBytes(), 2 * (static_cast<size_t>(r) + 1) * bytes)
          << "row " << r;
      want_b.push_back(b);
    }
    EXPECT_EQ(ValuesOf(db, "a"),
              (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0, 5.0}));
    EXPECT_EQ(ValuesOf(db, "b"), want_b);
  }
}

// --- Frame storage against a per-series reference model -------------------
//
// Random frames (widths 1..1,700, plus width-1 series appended on their
// own) receive rows with random absent cells and repeated stamps; the model
// stores every series as its own plain vector of points and mirrors only
// the width rule (a frame's cells take the CellBytes of the widest present
// cell it has held: 2 while every one is WholeExact, 4 while every one is
// FloatExact, 8 after). Frames start with 16-bit whole numbers and switch
// to larger whole numbers and then to inexact values at random rows (so
// they widen to float and to double, or to double in one step), or hold
// one kind throughout; absent cells hold inexact values that must not
// widen. After every row, random range reads, Latest, TotalPoints and
// HotValueBytes must agree; at the end, every series' full history and
// SeriesNames.

struct ModelFrame {
  FrameId id;
  std::vector<size_t> members;  // Model series indices.
  SimTime last;
  // Rows from these on carry whole numbers past 16 bits, and inexact
  // values (SIZE_MAX: never).
  size_t float_from = std::numeric_limits<size_t>::max();
  size_t inexact_from = std::numeric_limits<size_t>::max();
  size_t rows = 0;   // Rows appended so far.
  size_t bytes = 2;  // Bytes per cell.
};

void ExpectSameBits(const std::vector<TimePoint>& got,
                    const std::vector<TimePoint>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << context << " point " << i;
    ASSERT_EQ(std::memcmp(&got[i].value, &want[i].value, sizeof(double)), 0)
        << context << " point " << i;
  }
}

class TimeSeriesDbFramePropertyTest : public ::testing::Test {
 protected:
  // How often a frame widened to float and to double across the trials.
  size_t to_float_ = 0;
  size_t to_double_ = 0;

  // One lockstep trial.
  void RunTrial(uint64_t seed) {
    TimeSeriesDb db;
    Rng rng(seed);
    std::vector<SeriesId> ids;
    std::vector<std::vector<TimePoint>> model;  // Indexed like `ids`.
    auto add_series = [&] {
      ids.push_back(db.Intern("s" + std::to_string(ids.size())));
      model.emplace_back();
      return ids.size() - 1;
    };

    // Frames registered through RegisterFrame, then width-1 series that
    // are only ever appended on their own.
    std::vector<ModelFrame> frames(static_cast<size_t>(rng.UniformInt(1, 3)));
    for (ModelFrame& frame : frames) {
      const int64_t width = rng.Bernoulli(0.3) ? rng.UniformInt(1, 1700)
                                               : rng.UniformInt(1, 70);
      std::vector<SeriesId> members;
      for (int64_t c = 0; c < width; ++c) {
        const size_t k = add_series();
        if (rng.Bernoulli(0.05)) {
          db.ReservePoints(ids[k], 8);  // Re-homed by RegisterFrame.
        }
        frame.members.push_back(k);
        members.push_back(ids[k]);
      }
      frame.id = db.RegisterFrame(members);
      if (rng.Bernoulli(0.5)) {
        db.ReserveRows(frame.id, static_cast<size_t>(rng.UniformInt(1, 90)));
      }
    }
    std::vector<ModelFrame> singles(static_cast<size_t>(rng.UniformInt(1, 3)));
    for (ModelFrame& single : singles) {
      single.members.push_back(add_series());
    }
    for (std::vector<ModelFrame>* group : {&frames, &singles}) {
      for (ModelFrame& frame : *group) {
        const double kind = rng.Uniform(0.0, 1.0);
        if (kind < 0.4) {  // 16 -> float -> double.
          frame.float_from = static_cast<size_t>(rng.UniformInt(0, 8));
          frame.inexact_from =
              frame.float_from + static_cast<size_t>(rng.UniformInt(0, 8));
        } else if (kind < 0.55) {  // 16 -> float.
          frame.float_from = static_cast<size_t>(rng.UniformInt(0, 12));
        } else if (kind < 0.7) {  // 16 -> double in one step.
          frame.inexact_from = static_cast<size_t>(rng.UniformInt(0, 12));
        } else if (kind < 0.8) {  // Double throughout.
          frame.inexact_from = 0;
        }
      }
    }
    // A cell for row `row` of `frame`: a whole number in [0, 65535], one in
    // [-2^24, 2^24] (sometimes -0.0), or an inexact value.
    auto draw_value = [&](const ModelFrame& frame, bool inexact) {
      if (inexact || frame.rows >= frame.inexact_from) {
        return rng.Uniform(-1e3, 1e3);
      }
      if (frame.rows < frame.float_from) {
        return static_cast<double>(rng.UniformInt(0, 65535));
      }
      return rng.Bernoulli(0.02)
                 ? -0.0
                 : static_cast<double>(rng.UniformInt(-(1 << 24), 1 << 24));
    };
    // Mirrors one appended row of `frame` whose widest present cell takes
    // `row_bytes`.
    auto note_row = [&](ModelFrame& frame, size_t row_bytes) {
      ++frame.rows;
      if (row_bytes > frame.bytes) {
        frame.bytes = row_bytes;
        ++(row_bytes == 4 ? to_float_ : to_double_);
      }
    };
    // Repeats a stamp about a third of the time: appends only need to be
    // non-decreasing.
    auto next_stamp = [&](ModelFrame& frame) {
      frame.last = frame.last + SimTime::Minutes(static_cast<double>(
                                    rng.UniformInt(0, 2)));
      return frame.last;
    };
    auto check_series = [&](size_t k, SimTime from, SimTime to) {
      std::vector<TimePoint> want;
      for (const TimePoint& p : model[k]) {
        if (from <= p.time && p.time <= to) {
          want.push_back(p);
        }
      }
      const StitchedView view = db.QueryStitched(ids[k], from, to);
      ASSERT_EQ(view.size(), want.size()) << "series " << k;
      ExpectSameBits(view.Materialize(), want,
                     "seed " + std::to_string(seed) + " series " +
                         std::to_string(k));
      const std::optional<TimePoint> latest = db.Latest(ids[k]);
      ASSERT_EQ(latest.has_value(), !model[k].empty()) << "series " << k;
      if (latest.has_value()) {
        ExpectSameBits({*latest}, {model[k].back()},
                       "latest of series " + std::to_string(k));
      }
    };

    std::vector<double> values;
    std::vector<uint8_t> absent;
    const int64_t steps = rng.UniformInt(20, 110);
    for (int64_t step = 0; step < steps; ++step) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(frames.size() + singles.size()) - 1));
      if (pick < frames.size()) {
        ModelFrame& frame = frames[pick];
        const size_t width = frame.members.size();
        const SimTime stamp = next_stamp(frame);
        // Half the rows are full (no absent array at all); the rest drop
        // cells at 30 %, or every cell.
        const double absent_p =
            rng.Bernoulli(0.5) ? 0.0 : (rng.Bernoulli(0.2) ? 1.0 : 0.3);
        values.resize(width);
        absent.assign(width, 0);
        size_t row_bytes = 2;
        for (size_t c = 0; c < width; ++c) {
          absent[c] = rng.Bernoulli(absent_p) ? 1 : 0;
          // An absent cell's value is never read, so an inexact one must
          // not widen the frame.
          values[c] = draw_value(frame, absent[c] != 0);
          if (absent[c] == 0) {
            model[frame.members[c]].push_back(TimePoint{stamp, values[c]});
            row_bytes = std::max(row_bytes, CellBytes(values[c]));
          }
        }
        db.AppendFrame(frame.id, stamp, values,
                       absent_p > 0.0 ? absent.data() : nullptr);
        note_row(frame, row_bytes);
      } else {
        ModelFrame& single = singles[pick - frames.size()];
        const size_t k = single.members.front();
        const SimTime stamp = next_stamp(single);
        const double value = draw_value(single, false);
        db.Append(ids[k], stamp, value);
        model[k].push_back(TimePoint{stamp, value});
        note_row(single, CellBytes(value));
      }

      size_t total = 0;
      for (const std::vector<TimePoint>& points : model) {
        total += points.size();
      }
      ASSERT_EQ(db.TotalPoints(), total) << "seed " << seed;
      size_t hot_bytes = 0;
      for (const std::vector<ModelFrame>* group : {&frames, &singles}) {
        for (const ModelFrame& frame : *group) {
          hot_bytes += frame.rows * frame.members.size() * frame.bytes;
        }
      }
      ASSERT_EQ(db.HotValueBytes(), hot_bytes) << "seed " << seed;
      for (int q = 0; q < 4; ++q) {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
        SimTime from = SimTime::Minutes(
            static_cast<double>(rng.UniformInt(-2, 2 * steps + 2)));
        SimTime to = SimTime::Minutes(
            static_cast<double>(rng.UniformInt(-2, 2 * steps + 2)));
        if (to < from) {
          std::swap(from, to);
        }
        check_series(k, from, to);
        if (HasFatalFailure()) {
          return;
        }
      }
    }

    // Full history of every series, and the names that hold points.
    std::vector<std::string> names;
    for (size_t k = 0; k < ids.size(); ++k) {
      check_series(k, SimTime::Micros(std::numeric_limits<int64_t>::min()),
                   SimTime::Max());
      if (HasFatalFailure()) {
        return;
      }
      if (!model[k].empty()) {
        names.push_back(db.Name(ids[k]));
      }
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(db.SeriesNames(), names) << "seed " << seed;
  }
};

TEST_F(TimeSeriesDbFramePropertyTest, LockstepWithPerSeriesModel) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunTrial(seed * 7919);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The trials exercised both widenings.
  EXPECT_GT(to_float_, 0u);
  EXPECT_GT(to_double_, 0u);
}

}  // namespace
}  // namespace ampere
