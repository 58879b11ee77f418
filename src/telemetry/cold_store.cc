#include "src/telemetry/cold_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace ampere {
namespace {

constexpr std::string_view kManifestMagic = "AMPTSMAN";
constexpr std::string_view kManifestName = "manifest.ampts";

StoreStatus ManifestError(StoreError error, size_t byte_offset,
                          const std::string& detail) {
  StoreStatus status;
  status.error = error;
  status.byte_offset = byte_offset;
  std::ostringstream message;
  message << StoreErrorName(error) << " at byte " << byte_offset
          << " of manifest: " << detail;
  status.message = message.str();
  return status;
}

std::string HexKey(uint64_t key) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(key));
  return std::string(buffer);
}

bool ParseHex64(std::string_view text, uint64_t* out) {
  if (text.size() != 16) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

// Slices one segment's columns to the samples with time in [from_us, to_us]
// and appends the (possibly empty) result as a ColdPiece. O(count) decode:
// cold reads are the export/analysis surface, not the control loop.
void AppendSlice(std::span<const int64_t> deltas,
                 std::span<const double> values, int64_t first_us,
                 int64_t from_us, int64_t to_us,
                 std::vector<ColdPiece>* out) {
  const size_t n = values.size();
  size_t lo = n;       // First index with t >= from_us.
  int64_t lo_time = 0;
  size_t hi = n;       // First index with t > to_us.
  int64_t t = first_us;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      t += deltas[i];
    }
    if (lo == n && t >= from_us) {
      lo = i;
      lo_time = t;
    }
    if (t > to_us) {
      hi = i;
      break;
    }
  }
  if (lo >= hi) {
    return;
  }
  ColdPiece piece;
  piece.base_time = SimTime::Micros(lo_time);
  piece.deltas = deltas.subspan(lo, hi - lo);
  piece.values = values.subspan(lo, hi - lo);
  out->push_back(piece);
}

}  // namespace

ColdStore::ColdStore(const ColdStoreConfig& config) : config_(config) {
  if (config_.segment_samples < 2) {
    config_.segment_samples = 2;
  }
}

ColdStore::~ColdStore() { Flush(); }

std::string ColdStore::ManifestPath() const {
  return config_.dir + "/" + std::string(kManifestName);
}

ColdStore::OpenResult ColdStore::Create(const ColdStoreConfig& config) {
  OpenResult result;
  AMPERE_CHECK(!config.dir.empty()) << "cold store needs a directory";
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) {
    result.status = ManifestError(
        StoreError::kIo, 0, "cannot create directory " + config.dir);
    return result;
  }
  auto store = std::unique_ptr<ColdStore>(new ColdStore(config));
  result.status = store->WriteManifest();
  if (!result.status.ok()) {
    return result;
  }
  result.store = std::move(store);
  return result;
}

ColdStore::OpenResult ColdStore::OpenExisting(const ColdStoreConfig& config) {
  OpenResult result;
  auto store = std::unique_ptr<ColdStore>(new ColdStore(config));
  std::ifstream in(store->ManifestPath());
  if (!in) {
    result.status = ManifestError(StoreError::kIo, 0,
                                  "cannot open " + store->ManifestPath());
    return result;
  }
  std::string line;
  size_t line_start = 0;
  if (!std::getline(in, line)) {
    result.status =
        ManifestError(StoreError::kBadMagic, 0, "empty manifest");
    return result;
  }
  if (line.rfind(kManifestMagic, 0) != 0) {
    result.status =
        ManifestError(StoreError::kBadMagic, 0, "not an AMPTSMAN manifest");
    return result;
  }
  if (line != std::string(kManifestMagic) + " 1") {
    result.status = ManifestError(StoreError::kVersionSkew,
                                  kManifestMagic.size() + 1,
                                  "unsupported manifest version: " + line);
    return result;
  }
  line_start += line.size() + 1;

  size_t listed = 0;
  bool have_end = false;
  while (std::getline(in, line)) {
    const size_t at = line_start;
    line_start += line.size() + 1;
    if (have_end) {
      result.status = ManifestError(StoreError::kBadManifest, at,
                                    "content after end marker");
      return result;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "end") {
      uint64_t declared = 0;
      std::string extra;
      if (!(fields >> declared) || (fields >> extra)) {
        result.status = ManifestError(StoreError::kBadManifest, at,
                                      "malformed end marker");
        return result;
      }
      if (declared != listed) {
        result.status = ManifestError(
            StoreError::kBadManifest, at,
            "end marker declares " + std::to_string(declared) +
                " segments, saw " + std::to_string(listed));
        return result;
      }
      have_end = true;
      continue;
    }
    if (tag != "seg") {
      result.status = ManifestError(StoreError::kBadManifest, at,
                                    "unrecognized line: " + line);
      return result;
    }
    uint64_t count = 0;
    int64_t first_us = 0;
    int64_t last_us = 0;
    std::string key_hex;
    std::string file;
    if (!(fields >> count >> first_us >> last_us >> key_hex >> file)) {
      result.status = ManifestError(StoreError::kBadManifest, at,
                                    "malformed seg line: " + line);
      return result;
    }
    std::string name;
    std::getline(fields, name);
    if (!name.empty() && name.front() == ' ') {
      name.erase(0, 1);
    }
    uint64_t key = 0;
    if (name.empty() || !ParseHex64(key_hex, &key)) {
      result.status = ManifestError(StoreError::kBadManifest, at,
                                    "malformed seg line: " + line);
      return result;
    }
    if (key != StoreSeriesKey(name)) {
      result.status = ManifestError(
          StoreError::kBadManifest, at,
          "series key does not match name for series " + name);
      return result;
    }
    // Validate the segment itself (magic, version, CRCs, monotone deltas).
    auto opened = SegmentReader::Open(config.dir + "/" + file);
    if (!opened.status.ok()) {
      result.status = opened.status;
      result.status.message =
          "segment " + file + ": " + result.status.message;
      return result;
    }
    SegmentReader& reader = *opened.reader;
    if (reader.count() != count ||
        reader.first_time().micros() != first_us ||
        reader.last_time().micros() != last_us ||
        reader.series_key() != key) {
      result.status = ManifestError(
          StoreError::kBadManifest, at,
          "manifest entry disagrees with segment " + file);
      return result;
    }
    SeriesState& state = store->StateFor(name);
    if (!state.sealed.empty() && first_us < state.sealed.back().last_us) {
      result.status = ManifestError(
          StoreError::kBadManifest, at,
          "segments out of time order for series " + name);
      return result;
    }
    SealedSegment seg;
    seg.file = file;
    seg.count = count;
    seg.first_us = first_us;
    seg.last_us = last_us;
    seg.reader = std::move(opened.reader);
    state.sealed.push_back(std::move(seg));
    state.total_samples += count;
    store->total_samples_ += count;
    ++listed;
  }
  if (!have_end) {
    result.status = ManifestError(StoreError::kBadManifest, line_start,
                                  "missing end marker (truncated manifest)");
    return result;
  }
  store->file_counter_ = listed;  // New segments get fresh names.
  result.store = std::move(store);
  return result;
}

ColdStore::SeriesState& ColdStore::StateFor(std::string_view series) {
  auto it = series_.find(series);
  if (it != series_.end()) {
    return *it->second;
  }
  auto state = std::make_unique<SeriesState>();
  state->name = std::string(series);
  state->key = StoreSeriesKey(series);
  std::string key = state->name;
  auto [pos, inserted] = series_.emplace(std::move(key), std::move(state));
  return *pos->second;
}

std::string ColdStore::NextSegmentPath(const SeriesState& state,
                                       std::string* basename) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "seg-%06llu-%s.seg",
                static_cast<unsigned long long>(file_counter_),
                HexKey(state.key).c_str());
  *basename = buffer;
  return config_.dir + "/" + *basename;
}

void ColdStore::AppendBatch(std::string_view series,
                            std::span<const TimePoint> batch) {
  if (batch.empty()) {
    return;
  }
  SeriesState& state = StateFor(series);
  std::span<const TimePoint> rest = batch;
  while (!rest.empty()) {
    if (state.active == nullptr) {
      std::string basename;
      const std::string path = NextSegmentPath(state, &basename);
      ++file_counter_;
      state.active =
          SegmentWriter::Create(path, state.key, config_.segment_samples);
      AMPERE_CHECK(state.active != nullptr)
          << "cannot create cold segment " << path;
      state.active_file = basename;
    }
    const size_t accepted = state.active->AppendBatch(rest);
    state.total_samples += accepted;
    total_samples_ += accepted;
    rest = rest.subspan(accepted);
    if (!rest.empty()) {
      // Active segment full: seal it and roll.
      AMPERE_CHECK(state.active->count() > 0)
          << "cold segment refused all samples for series " << state.name;
      RollActive(state);
    }
  }
}

void ColdStore::RollActive(SeriesState& state) {
  const StoreStatus status = SealActive(state);
  AMPERE_CHECK(status.ok()) << "cold store seal failed: " << status.message;
  // The manifest is NOT rewritten here: it is O(total segments), so doing it
  // per seal would make a long spill run quadratic in manifest IO. Sealed
  // segments become visible to OpenExisting at the next Flush() (the
  // destructor flushes); a crash in between loses only what a RAM-only store
  // would also have lost.
}

StoreStatus ColdStore::SealActive(SeriesState& state) {
  if (state.active == nullptr) {
    return StoreStatus{};
  }
  if (state.active->count() == 0) {
    // Nothing committed; drop the file instead of sealing an empty segment.
    const std::string path = config_.dir + "/" + state.active_file;
    state.active.reset();
    state.active_file.clear();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return StoreStatus{};
  }
  SealedSegment seg;
  seg.file = state.active_file;
  seg.count = state.active->count();
  seg.first_us = state.active->first_time().micros();
  seg.last_us = state.active->last_time().micros();
  const StoreStatus status = state.active->Seal();
  if (!status.ok()) {
    return status;
  }
  state.sealed.push_back(std::move(seg));
  state.active.reset();
  state.active_file.clear();
  return StoreStatus{};
}

StoreStatus ColdStore::Flush() {
  StoreStatus first;
  for (auto& [name, state] : series_) {
    const StoreStatus status = SealActive(*state);
    if (!status.ok() && first.ok()) {
      first = status;
    }
  }
  const StoreStatus manifest = WriteManifest();
  if (!manifest.ok() && first.ok()) {
    first = manifest;
  }
  return first;
}

StoreStatus ColdStore::WriteManifest() const {
  // Atomic: land the bytes in a temp file, then rename over the manifest.
  const std::string tmp = config_.dir + "/manifest.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return ManifestError(StoreError::kIo, 0, "cannot write " + tmp);
    }
    out << kManifestMagic << " 1\n";
    size_t n = 0;
    for (const auto& [name, state] : series_) {
      for (const SealedSegment& seg : state->sealed) {
        out << "seg " << seg.count << ' ' << seg.first_us << ' '
            << seg.last_us << ' ' << HexKey(state->key) << ' ' << seg.file
            << ' ' << name << '\n';
        ++n;
      }
    }
    out << "end " << n << '\n';
    out.flush();
    if (!out) {
      return ManifestError(StoreError::kIo, 0, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, ManifestPath(), ec);
  if (ec) {
    return ManifestError(StoreError::kIo, 0,
                         "cannot rename " + tmp + ": " + ec.message());
  }
  return StoreStatus{};
}

void ColdStore::QueryPieces(std::string_view series, SimTime from, SimTime to,
                            std::vector<ColdPiece>* out) const {
  auto it = series_.find(series);
  if (it == series_.end()) {
    return;
  }
  const SeriesState& state = *it->second;
  const int64_t from_us = from.micros();
  const int64_t to_us = to.micros();
  for (const SealedSegment& seg : state.sealed) {
    if (seg.last_us < from_us || seg.first_us > to_us) {
      continue;
    }
    if (seg.reader == nullptr) {
      // Sealed segments are unmapped at seal time (no dirty pages); the
      // first query remaps them read-only. This must succeed for a store we
      // sealed ourselves — failure means the files were pulled out from
      // under a live store.
      auto opened = SegmentReader::Open(config_.dir + "/" + seg.file);
      AMPERE_CHECK(opened.status.ok())
          << "cold segment unreadable under a live store: "
          << opened.status.message;
      seg.reader = std::move(opened.reader);
    }
    AppendSlice(seg.reader->deltas(), seg.reader->values(), seg.first_us,
                from_us, to_us, out);
  }
  if (state.active != nullptr && state.active->count() > 0) {
    AppendSlice(state.active->deltas(), state.active->values(),
                state.active->first_time().micros(), from_us, to_us, out);
  }
}

std::vector<std::string> ColdStore::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, state] : series_) {
    if (state->total_samples > 0) {
      names.push_back(name);
    }
  }
  return names;  // std::map iteration: already sorted.
}

uint64_t ColdStore::SamplesForSeries(std::string_view series) const {
  auto it = series_.find(series);
  if (it == series_.end()) {
    return 0;
  }
  return it->second->total_samples;
}

size_t ColdStore::total_segments() const {
  size_t n = 0;
  for (const auto& [name, state] : series_) {
    n += state->sealed.size();
    if (state->active != nullptr && state->active->count() > 0) {
      ++n;
    }
  }
  return n;
}

size_t ColdStore::sealed_segments() const {
  size_t n = 0;
  for (const auto& [name, state] : series_) {
    n += state->sealed.size();
  }
  return n;
}

}  // namespace ampere
