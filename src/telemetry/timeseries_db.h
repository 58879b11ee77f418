// In-memory time-series database.
//
// The production deployment stores one power sample per server per minute in
// MySQL behind a RESTful query API (§3.3). Here the same role is played by an
// append-only in-memory store with range queries; the controller and the
// benches consume the identical query surface (latest value, range scan,
// whole-series extraction).
//
// Storage is minute-major *frames*. The monitor samples a whole DC at one
// timestamp, so each sample pass is one frame row: a stamp plus one value
// per member series, stored row-major (`width x rows` cells) next to a
// stamp column. Every series is one column of exactly one frame:
//   - PowerMonitor registers one frame per monitor (RegisterFrame) and
//     appends one row per pass (AppendFrame) — one contiguous write and one
//     order check per row instead of one per series.
//   - A series appended on its own (Append by handle or by name) is a
//     width-1 frame, created on its first append or reservation.
// A cell can be *absent* (a dropped reading, a dark feed): the frame then
// grows a presence bitmap, allocated only when the first absent cell
// arrives, and reads skip absent cells — each series holds exactly the
// points appended to it.
// Cells are stored in the narrowest of four widths that holds every
// present cell of the frame bit for bit: one byte above a per-frame base
// (whole watts within a 256 W window: one tier of BMC readings), 16-bit
// unsigned whole numbers (whole-watt readings and rack sums up to
// 65,535 W), float (larger whole-watt sums), else double. A frame starts
// at one byte; its first row with a present cell fixes the base (the
// midpoint of that row's present values, rounded down, minus 128, clamped
// to [0, 65,280]). The first row that does not fit widens the frame once,
// straight to the narrowest width that holds that row, converting its
// rows exactly. Width only ever widens and is invisible to readers, which
// always get the appended bits.
//
// Handles: a producer interns each series name once (Intern: the only
// place a string is hashed or copied) and appends through the integer
// SeriesId. String-keyed calls are a thin shim over interning.
//
// There is one tier: every point a run appends stays in its frame for the
// db's lifetime. At 1-2 bytes per whole-watt cell the longest shipped run
// stays well under the memory of any host it runs on; the sizing is in
// docs/telemetry_storage.md.

#ifndef SRC_TELEMETRY_TIMESERIES_DB_H_
#define SRC_TELEMETRY_TIMESERIES_DB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"

namespace ampere {

struct TimePoint {
  SimTime time;
  double value = 0.0;
};

// One series' rows inside its frame: the frame's stamps, the series'
// strided value column (8-bit above `base`, 16-bit, float or double, as
// the frame stores it)
// and, if the frame has ever held an absent cell, the series' presence bits
// (one word per row at `presence_stride`, tested with `presence_mask`).
struct HotColumn {
  std::span<const SimTime> stamps;
  // Row i at [i * value_stride] of the one block that is set.
  const uint8_t* byte = nullptr;  // Reads as the byte plus `base`.
  double base = 0.0;
  const uint16_t* whole = nullptr;
  const float* narrow = nullptr;
  const double* wide = nullptr;
  size_t value_stride = 1;
  const uint64_t* presence = nullptr;  // Null: every cell present.
  size_t presence_stride = 0;
  uint64_t presence_mask = 0;

  bool present(size_t row) const {
    return presence == nullptr ||
           (presence[row * presence_stride] & presence_mask) != 0;
  }
  double value(size_t row) const {
    const size_t cell = row * value_stride;
    if (byte != nullptr) {
      return static_cast<double>(byte[cell]) + base;
    }
    if (whole != nullptr) {
      return static_cast<double>(whole[cell]);
    }
    return narrow != nullptr ? static_cast<double>(narrow[cell]) : wide[cell];
  }
};

// A query result: the series' rows of its frame column in the queried
// range, zero-copy. Views are invalidated by the next append to the
// series' frame (growth or widening); consume before resuming appends.
class StitchedView {
 public:
  StitchedView() = default;
  explicit StitchedView(const HotColumn& hot);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Visits every present point in time order.
  template <typename Fn>
  void ForEachPoint(Fn&& fn) const {
    for (size_t i = 0; i < hot_.stamps.size(); ++i) {
      if (hot_.present(i)) {
        fn(TimePoint{hot_.stamps[i], hot_.value(i)});
      }
    }
  }

  // Copying convenience for tests/analysis.
  std::vector<TimePoint> Materialize() const;

 private:
  HotColumn hot_;
  size_t size_ = 0;
};

// Opaque interned-series handle. Default-constructed handles are invalid;
// valid handles come from TimeSeriesDb::Intern / Find and stay valid for the
// lifetime of that database (series are never removed).
class SeriesId {
 public:
  SeriesId() = default;
  bool valid() const { return value_ != kInvalid; }
  uint32_t index() const { return value_; }
  friend bool operator==(SeriesId a, SeriesId b) {
    return a.value_ == b.value_;
  }
  friend bool operator!=(SeriesId a, SeriesId b) {
    return a.value_ != b.value_;
  }

 private:
  friend class TimeSeriesDb;
  explicit SeriesId(uint32_t value) : value_(value) {}
  static constexpr uint32_t kInvalid = 0xffffffffu;
  uint32_t value_ = kInvalid;
};

// Opaque frame handle from TimeSeriesDb::RegisterFrame.
class FrameId {
 public:
  FrameId() = default;
  bool valid() const { return value_ != kInvalid; }
  uint32_t index() const { return value_; }

 private:
  friend class TimeSeriesDb;
  explicit FrameId(uint32_t value) : value_(value) {}
  static constexpr uint32_t kInvalid = 0xffffffffu;
  uint32_t value_ = kInvalid;
};

class TimeSeriesDb {
 public:
  // --- Series handles ------------------------------------------------------

  // Returns the handle for `name`, creating an empty series on first use.
  // The only place a string is hashed or copied; producers call this once
  // per series at setup time (PowerMonitor pre-interns its whole fleet).
  SeriesId Intern(std::string_view name);

  // Lookup without creation; invalid handle if the series does not exist.
  SeriesId Find(std::string_view name) const;

  // Interned-name reverse lookup (valid handles only).
  const std::string& Name(SeriesId id) const;

  // Number of interned series (including pre-interned, still-empty ones).
  size_t NumSeries() const { return names_.size(); }

  // Capacity hint: pre-sizes the name map and series tables for
  // `expected_series` entries so interning never rehashes mid-run.
  void Reserve(size_t expected_series);

  // --- Frames --------------------------------------------------------------

  // Makes `members` the columns of one new frame, in that order. Members
  // must be distinct and still empty: never framed, or alone in a width-1
  // frame without rows (whose reservation is released).
  FrameId RegisterFrame(std::span<const SeriesId> members);

  // Appends one row: `values[c]` to member c at `stamp`. `absent`, if
  // given, holds one byte per member; a nonzero byte leaves that cell out
  // (the series gets no point at `stamp`). Stamps must be non-decreasing
  // per frame, checked once per row. While every cell is present, an
  // append after ReserveRows allocates at most once per widening, on the
  // row that widens the frame (its first row with a present cell that does
  // not round-trip through the current width; the wider block keeps the
  // reserved row capacity), and never otherwise. The widening row takes
  // the frame straight to the narrowest width that holds it: a row that
  // fits neither 16 bits nor float takes a byte frame to double in one
  // step.
  void AppendFrame(FrameId frame, SimTime stamp,
                   std::span<const double> values,
                   const uint8_t* absent = nullptr);

  // Pre-sizes a frame for `rows` rows.
  void ReserveRows(FrameId frame, size_t rows);

  // --- Single-series appends (width-1 frames) ------------------------------

  // Appends a point to a series that is not a column of a wider frame: a
  // one-cell row of its width-1 frame. Timestamps within one series must be
  // non-decreasing. After ReservePoints it touches no allocator.
  void Append(SeriesId id, SimTime t, double value);

  // Appends a point by name; interns the name on first use. Heterogeneous
  // lookup keeps the repeat path allocation-free, but still pays one hash
  // probe — hot producers should hold a SeriesId instead.
  void Append(std::string_view series, SimTime t, double value) {
    Append(Intern(series), t, value);
  }

  // Pre-sizes the series' frame (its own width-1 frame if it has none yet)
  // for `expected_points` rows.
  void ReservePoints(SeriesId id, size_t expected_points);

  // --- Reads ---------------------------------------------------------------

  // Full-history reads: zero-copy views of the series' frame column. The
  // one read path for export and analysis. Unknown series read as empty.
  StitchedView SeriesStitched(SeriesId id) const;
  StitchedView QueryStitched(SeriesId id, SimTime from, SimTime to) const;
  StitchedView SeriesStitched(std::string_view series) const {
    return SeriesStitched(Find(series));
  }
  StitchedView QueryStitched(std::string_view series, SimTime from,
                             SimTime to) const {
    return QueryStitched(Find(series), from, to);
  }

  // Most recent point of the series, if any.
  std::optional<TimePoint> Latest(SeriesId id) const;
  std::optional<TimePoint> Latest(std::string_view series) const {
    return Latest(Find(series));
  }

  // Names of series that hold at least one point, sorted.
  // Pre-interned but never-appended series are deliberately excluded:
  // interning is a capacity hint, not an observable write.
  std::vector<std::string> SeriesNames() const;
  // Total points across all series.
  size_t TotalPoints() const;
  // Bytes of the stored cells (absent ones included) across all frames: 1 per
  // cell of a byte frame, 2 per cell of a 16-bit one, 4 per cell of a float
  // one, 8 per cell of a double one.
  size_t HotValueBytes() const;

 private:
  static constexpr uint32_t kNoFrame = 0xffffffffu;

  // Where a series lives: column `column` of frame `frame`.
  struct Slot {
    uint32_t frame = kNoFrame;
    uint32_t column = 0;
  };

  // A frame's cell width; it only ever grows.
  enum class CellWidth : uint8_t { kByte, kWhole16, kFloat, kDouble };

  struct Frame {
    std::vector<SeriesId> members;  // Column order.
    std::vector<SimTime> stamps;    // One per row.
    // Row-major cells, members.size() per row, in the block of the frame's
    // width; the other blocks stay empty. A byte cell reads as itself plus
    // `base`, fixed by the first row with a present cell.
    std::vector<uint8_t> bytes;
    std::vector<uint16_t> whole;
    std::vector<float> narrow;
    std::vector<double> wide;
    CellWidth width = CellWidth::kByte;
    uint16_t base = 0;
    // Row-major presence bits, words() words per row; bit c%64 of word
    // c/64 is column c. Empty until the first absent cell.
    std::vector<uint64_t> presence;
    size_t points = 0;  // Present cells.

    size_t words() const { return (members.size() + 63) / 64; }
    // Returns fn applied to the block of width `w`.
    template <typename Fn>
    decltype(auto) WithBlock(CellWidth w, Fn&& fn) {
      switch (w) {
        case CellWidth::kByte:
          return fn(bytes);
        case CellWidth::kWhole16:
          return fn(whole);
        case CellWidth::kFloat:
          return fn(narrow);
        case CellWidth::kDouble:
          break;
      }
      return fn(wide);
    }
    // Only the block of the frame's width holds any capacity.
    size_t cell_capacity() const {
      return bytes.capacity() + whole.capacity() + narrow.capacity() +
             wide.capacity();
    }
  };

  // The series' frame; a still-unframed series gets its own width-1 frame.
  FrameId FrameOf(SeriesId id);
  // Appends `row`'s presence words, allocating the bitmap (all earlier rows
  // present) at the first absent cell; returns the row's present count.
  size_t AppendPresence(Frame& frame, const uint8_t* absent);
  // Appends `values` to the block of the frame's width if every present
  // cell is exact there; otherwise leaves the block as it was and returns
  // false.
  static bool AppendRow(Frame& frame, std::span<const double> values,
                        const uint8_t* absent);
  // Moves the frame's rows into the block of the wider width `to`,
  // keeping its reserved row capacity.
  static void Widen(Frame& frame, CellWidth to);
  HotColumn HotColumnFor(Slot slot, SimTime from, SimTime to) const;

  // Transparent (heterogeneous) hash/equal: find() and the insert-or-lookup
  // in Intern accept std::string_view without materializing a std::string.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, uint32_t, TransparentHash, std::equal_to<>>
      index_;
  std::vector<std::string> names_;  // Indexed by SeriesId.
  std::vector<Slot> slots_;         // Indexed by SeriesId.
  std::vector<Frame> frames_;       // Indexed by FrameId.
};

}  // namespace ampere

#endif  // SRC_TELEMETRY_TIMESERIES_DB_H_
