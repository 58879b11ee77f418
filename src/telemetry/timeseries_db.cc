#include "src/telemetry/timeseries_db.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "src/common/check.h"

namespace ampere {
namespace {

constexpr SimTime kEarliest =
    SimTime::Micros(std::numeric_limits<int64_t>::min());

constexpr double kFloatMax = std::numeric_limits<float>::max();
constexpr double kFloatMinNormal = std::numeric_limits<float>::min();

// Narrows `v` to a Cell in `*out` and returns whether the cell reads back
// as `v` bit for bit. A range guard runs first, so the cast is always
// defined: [0, 65535] for 16 bits; for float, |v| <= FLT_MAX and normal or
// zero. NaN fails every comparison, so it fails both; an out-of-range
// value narrows to 0. The bit compare then rejects fractions, values
// float cannot hold, and -0.0 in a 16-bit cell (which has no sign bit).
template <typename Cell>
bool Narrow(double v, Cell* out) {
  bool in_range;
  if constexpr (std::is_same_v<Cell, uint16_t>) {
    in_range = v >= 0.0 && v <= 65535.0;
  } else {
    const double magnitude = std::fabs(v);
    in_range = magnitude <= kFloatMax &&
               (magnitude >= kFloatMinNormal || magnitude == 0.0);
  }
  *out = in_range ? static_cast<Cell>(v) : Cell{0};
  return in_range && std::bit_cast<uint64_t>(static_cast<double>(*out)) ==
                         std::bit_cast<uint64_t>(v);
}

// Writes every cell of `values` to `out` as a Cell and returns whether each
// present cell reads back as exactly its double. Absent cells are never
// read, so they never fail the row.
template <typename Cell>
bool NarrowRow(std::span<const double> values, const uint8_t* absent,
               Cell* __restrict out) {
  bool exact = true;
  for (size_t c = 0; c < values.size(); ++c) {
    Cell cell;
    const bool fits = Narrow(values[c], &cell);
    out[c] = cell;
    exact &= fits || (absent != nullptr && absent[c] != 0);
  }
  return exact;
}

// Appends `values` to `block` as Cells if every present cell is exact
// there; otherwise leaves `block` as it was and returns false.
template <typename Cell>
bool AppendNarrowRow(std::span<const double> values, const uint8_t* absent,
                     std::vector<Cell>& block) {
  const size_t begin = block.size();
  block.resize(begin + values.size());
  if (NarrowRow(values, absent, block.data() + begin)) {
    return true;
  }
  block.resize(begin);
  return false;
}

// NarrowRow's verdict without the stores: whether every present cell of
// the row is exact as a Cell.
template <typename Cell>
bool RowFits(std::span<const double> values, const uint8_t* absent) {
  for (size_t c = 0; c < values.size(); ++c) {
    Cell cell;
    if ((absent == nullptr || absent[c] == 0) && !Narrow(values[c], &cell)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StitchedView::StitchedView(const HotColumn& hot) : hot_(hot) {
  if (hot_.presence == nullptr) {
    size_ = hot_.stamps.size();
  } else {
    for (size_t i = 0; i < hot_.stamps.size(); ++i) {
      if (hot_.present(i)) {
        ++size_;
      }
    }
  }
}

std::vector<TimePoint> StitchedView::Materialize() const {
  std::vector<TimePoint> out;
  out.reserve(size());
  ForEachPoint([&out](const TimePoint& point) { out.push_back(point); });
  return out;
}

SeriesId TimeSeriesDb::Intern(std::string_view name) {
  // Heterogeneous find first: repeat interns (and the string-API shim) pay
  // one hash probe and allocate nothing.
  auto it = index_.find(name);
  if (it != index_.end()) {
    return SeriesId(it->second);
  }
  AMPERE_CHECK(names_.size() < SeriesId::kInvalid) << "series table full";
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  slots_.emplace_back();
  index_.emplace(names_.back(), id);
  return SeriesId(id);
}

SeriesId TimeSeriesDb::Find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return SeriesId();
  }
  return SeriesId(it->second);
}

const std::string& TimeSeriesDb::Name(SeriesId id) const {
  AMPERE_CHECK(id.valid() && id.index() < names_.size())
      << "Name of invalid SeriesId";
  return names_[id.index()];
}

void TimeSeriesDb::Reserve(size_t expected_series) {
  index_.reserve(expected_series);
  names_.reserve(expected_series);
  slots_.reserve(expected_series);
}

FrameId TimeSeriesDb::RegisterFrame(std::span<const SeriesId> members) {
  AMPERE_CHECK(!members.empty()) << "a frame needs at least one member";
  AMPERE_CHECK(frames_.size() < kNoFrame) << "frame table full";
  const uint32_t index = static_cast<uint32_t>(frames_.size());
  frames_.emplace_back();
  frames_.back().members.reserve(members.size());
  for (SeriesId id : members) {
    AMPERE_CHECK(id.valid() && id.index() < slots_.size())
        << "RegisterFrame through invalid SeriesId";
    Slot& slot = slots_[id.index()];
    if (slot.frame != kNoFrame) {
      AMPERE_CHECK(slot.frame != index)
          << "series " << names_[id.index()] << " listed twice in one frame";
      Frame& old = frames_[slot.frame];
      AMPERE_CHECK(old.members.size() == 1 && old.stamps.empty())
          << "series " << names_[id.index()]
          << " already holds points or belongs to another frame";
      old = Frame();  // Releases the width-1 frame's reservation.
    }
    Frame& frame = frames_[index];
    slot = Slot{index, static_cast<uint32_t>(frame.members.size())};
    frame.members.push_back(id);
  }
  return FrameId(index);
}

FrameId TimeSeriesDb::FrameOf(SeriesId id) {
  AMPERE_CHECK(id.valid() && id.index() < slots_.size())
      << "append or reserve through invalid SeriesId";
  if (slots_[id.index()].frame == kNoFrame) {
    const SeriesId members[] = {id};
    return RegisterFrame(members);
  }
  return FrameId(slots_[id.index()].frame);
}

void TimeSeriesDb::ReserveRows(FrameId frame, size_t rows) {
  AMPERE_CHECK(frame.valid() && frame.index() < frames_.size())
      << "ReserveRows through invalid FrameId";
  Frame& f = frames_[frame.index()];
  f.stamps.reserve(rows);
  const size_t cells = rows * f.members.size();
  f.WithBlock([cells](auto& block) { block.reserve(cells); });
  if (!f.presence.empty()) {
    f.presence.reserve(rows * f.words());
  }
}

void TimeSeriesDb::ReservePoints(SeriesId id, size_t expected_points) {
  ReserveRows(FrameOf(id), expected_points);
}

void TimeSeriesDb::Append(SeriesId id, SimTime t, double value) {
  AppendFrame(FrameOf(id), t, std::span<const double>(&value, 1));
}

void TimeSeriesDb::AppendFrame(FrameId frame, SimTime stamp,
                               std::span<const double> values,
                               const uint8_t* absent) {
  AMPERE_CHECK(frame.valid() && frame.index() < frames_.size())
      << "AppendFrame through invalid FrameId";
  Frame& f = frames_[frame.index()];
  AMPERE_CHECK(values.size() == f.members.size())
      << "frame row of " << values.size() << " values for "
      << f.members.size() << " members";
  AMPERE_CHECK(f.stamps.empty() || f.stamps.back() <= stamp)
      << "out-of-order append to the frame of series "
      << names_[f.members.front().index()];
  f.stamps.push_back(stamp);
  if (f.width == CellWidth::kWhole16 &&
      !AppendNarrowRow(values, absent, f.whole)) {
    Widen(f, RowFits<float>(values, absent) ? CellWidth::kFloat
                                            : CellWidth::kDouble);
  }
  if (f.width == CellWidth::kFloat &&
      !AppendNarrowRow(values, absent, f.narrow)) {
    Widen(f, CellWidth::kDouble);
  }
  if (f.width == CellWidth::kDouble) {
    f.wide.insert(f.wide.end(), values.begin(), values.end());
  }
  f.points += (absent != nullptr || !f.presence.empty())
                  ? AppendPresence(f, absent)
                  : f.members.size();
}

void TimeSeriesDb::Widen(Frame& frame, CellWidth to) {
  // 16-bit and float cells convert to every wider width exactly, so each
  // stored cell keeps its value.
  const size_t capacity = frame.cell_capacity();
  if (to == CellWidth::kFloat) {
    frame.narrow.reserve(capacity);
    frame.narrow.assign(frame.whole.begin(), frame.whole.end());
  } else {
    frame.wide.reserve(capacity);
    if (frame.width == CellWidth::kWhole16) {
      frame.wide.assign(frame.whole.begin(), frame.whole.end());
    } else {
      frame.wide.assign(frame.narrow.begin(), frame.narrow.end());
    }
    frame.narrow = std::vector<float>();
  }
  frame.whole = std::vector<uint16_t>();
  frame.width = to;
}

size_t TimeSeriesDb::AppendPresence(Frame& frame, const uint8_t* absent) {
  const size_t width = frame.members.size();
  const size_t words = frame.words();
  size_t present = width;
  if (absent != nullptr) {
    present = static_cast<size_t>(std::count(absent, absent + width, 0));
  }
  if (frame.presence.empty()) {
    if (present == width) {
      return present;  // Still all present: no bitmap yet.
    }
    // First absent cell: every earlier row was full. Reserve as many rows
    // as the value block holds so later rows do not reallocate.
    const size_t rows = frame.stamps.size();
    frame.presence.reserve(std::max(rows, frame.cell_capacity() / width) *
                           words);
    frame.presence.assign((rows - 1) * words, ~uint64_t{0});
  }
  const size_t begin = frame.presence.size();
  frame.presence.resize(begin + words, ~uint64_t{0});
  if (present != width) {
    for (size_t c = 0; c < width; ++c) {
      if (absent[c] != 0) {
        frame.presence[begin + c / 64] &= ~(uint64_t{1} << (c % 64));
      }
    }
  }
  return present;
}

HotColumn TimeSeriesDb::HotColumnFor(Slot slot, SimTime from,
                                     SimTime to) const {
  HotColumn hot;
  if (slot.frame == kNoFrame) {
    return hot;
  }
  const Frame& frame = frames_[slot.frame];
  const auto lo =
      std::lower_bound(frame.stamps.begin(), frame.stamps.end(), from);
  const auto hi = std::upper_bound(lo, frame.stamps.end(), to);
  const size_t first = static_cast<size_t>(lo - frame.stamps.begin());
  hot.stamps = std::span<const SimTime>(frame.stamps.data() + first,
                                        static_cast<size_t>(hi - lo));
  if (hot.stamps.empty()) {
    return hot;
  }
  hot.value_stride = frame.members.size();
  const size_t cell = first * hot.value_stride + slot.column;
  switch (frame.width) {
    case CellWidth::kWhole16:
      hot.whole = frame.whole.data() + cell;
      break;
    case CellWidth::kFloat:
      hot.narrow = frame.narrow.data() + cell;
      break;
    case CellWidth::kDouble:
      hot.wide = frame.wide.data() + cell;
      break;
  }
  if (!frame.presence.empty()) {
    hot.presence_stride = frame.words();
    hot.presence = frame.presence.data() + first * hot.presence_stride +
                   slot.column / 64;
    hot.presence_mask = uint64_t{1} << (slot.column % 64);
  }
  return hot;
}

StitchedView TimeSeriesDb::QueryStitched(SeriesId id, SimTime from,
                                         SimTime to) const {
  if (!id.valid() || id.index() >= names_.size()) {
    return StitchedView();
  }
  return StitchedView(HotColumnFor(slots_[id.index()], from, to));
}

StitchedView TimeSeriesDb::SeriesStitched(SeriesId id) const {
  return QueryStitched(id, kEarliest, SimTime::Max());
}

std::optional<TimePoint> TimeSeriesDb::Latest(SeriesId id) const {
  if (!id.valid() || id.index() >= names_.size()) {
    return std::nullopt;
  }
  const HotColumn column =
      HotColumnFor(slots_[id.index()], kEarliest, SimTime::Max());
  for (size_t i = column.stamps.size(); i-- > 0;) {
    if (column.present(i)) {
      return TimePoint{column.stamps[i], column.value(i)};
    }
  }
  return std::nullopt;
}

std::vector<std::string> TimeSeriesDb::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    if (Latest(SeriesId(static_cast<uint32_t>(i))).has_value()) {
      names.push_back(names_[i]);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t TimeSeriesDb::TotalPoints() const {
  size_t n = 0;
  for (const Frame& frame : frames_) {
    n += frame.points;
  }
  return n;
}

size_t TimeSeriesDb::HotValueBytes() const {
  size_t bytes = 0;
  for (const Frame& frame : frames_) {
    bytes += frame.whole.size() * sizeof(uint16_t) +
             frame.narrow.size() * sizeof(float) +
             frame.wide.size() * sizeof(double);
  }
  return bytes;
}

}  // namespace ampere
