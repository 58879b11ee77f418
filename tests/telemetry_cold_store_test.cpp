// Persistent cold tier: segment round-trips, spill policy, stitched reads,
// the OpenExisting instant-restart path, and the full corruption matrix
// (truncation, bad magic/CRC, version skew, mid-write kill, manifest
// damage). Readers must return structured StoreStatus errors on malformed
// bytes — never throw, never CHECK — mirroring the workload-trace contract.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/time.h"
#include "src/telemetry/cold_store.h"
#include "src/telemetry/mmap_segment.h"
#include "src/telemetry/timeseries_db.h"
#include "tests/scratch_dir.h"

namespace ampere {
namespace {

std::vector<TimePoint> MakePoints(size_t n, int64_t start_us = 1000,
                                  int64_t step_us = 60'000'000) {
  std::vector<TimePoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(TimePoint{
        SimTime::Micros(start_us + static_cast<int64_t>(i) * step_us),
        0.25 + static_cast<double>(i) * 1.5});
  }
  return points;
}

std::vector<TimePoint> Materialized(const TimeSeriesDb& db,
                                    std::string_view series) {
  return db.SeriesStitched(series).Materialize();
}

void ExpectSamePoints(const std::vector<TimePoint>& got,
                      const std::vector<TimePoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time.micros(), want[i].time.micros()) << "index " << i;
    // Bit-exact, not approximately-equal: the format stores raw doubles.
    EXPECT_EQ(std::memcmp(&got[i].value, &want[i].value, sizeof(double)), 0)
        << "index " << i;
  }
}

// --- Segment round-trip ---------------------------------------------------

TEST(MmapSegment, RoundTripsSamplesBitExactly) {
  const ScratchDir scratch("segment_roundtrip");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/seg.seg";
  const uint64_t key = StoreSeriesKey("power/total");
  auto writer = SegmentWriter::Create(path, key, 4, 1024);
  ASSERT_NE(writer, nullptr);

  const std::vector<TimePoint> points = MakePoints(100);
  EXPECT_EQ(writer->AppendBatch(points), points.size());
  EXPECT_EQ(writer->count(), points.size());
  EXPECT_TRUE(writer->Seal().ok());
  EXPECT_TRUE(writer->sealed());

  auto opened = SegmentReader::Open(path);
  ASSERT_TRUE(opened.status.ok()) << opened.status.message;
  SegmentReader& reader = *opened.reader;
  EXPECT_EQ(reader.count(), points.size());
  EXPECT_EQ(reader.series_key(), key);
  EXPECT_EQ(reader.first_time().micros(), points.front().time.micros());
  EXPECT_EQ(reader.last_time().micros(), points.back().time.micros());
  ASSERT_EQ(reader.deltas().size(), points.size());
  EXPECT_EQ(reader.deltas()[0], 0);
  int64_t t = reader.first_time().micros();
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) {
      t += reader.deltas()[i];
    }
    EXPECT_EQ(t, points[i].time.micros());
    EXPECT_EQ(std::memcmp(&reader.values()[i], &points[i].value,
                          sizeof(double)),
              0);
  }
}

TEST(MmapSegment, GrowsByDoublingAndReportsFullAtCap) {
  const ScratchDir scratch("segment_growth");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/seg.seg";
  auto writer = SegmentWriter::Create(path, 7, 2, 16);
  ASSERT_NE(writer, nullptr);
  const std::vector<TimePoint> points = MakePoints(50);
  // Only max_capacity samples fit; the rest are refused, not dropped
  // silently.
  EXPECT_EQ(writer->AppendBatch(points), 16u);
  EXPECT_EQ(writer->remaining(), 0u);
  EXPECT_EQ(writer->AppendBatch(std::span(points).subspan(16)), 0u);
  EXPECT_TRUE(writer->Seal().ok());
  auto opened = SegmentReader::Open(path);
  ASSERT_TRUE(opened.status.ok()) << opened.status.message;
  EXPECT_EQ(opened.reader->count(), 16u);
}

TEST(MmapSegment, SealPacksFileToCommittedSamples) {
  const ScratchDir scratch("segment_pack");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/seg.seg";
  auto writer = SegmentWriter::Create(path, 7, 1024, 4096);
  ASSERT_NE(writer, nullptr);
  writer->AppendBatch(MakePoints(10));
  ASSERT_TRUE(writer->Seal().ok());
  // Sealed size is exactly header + 16 bytes per committed sample — the
  // pre-sized capacity does not survive on disk.
  EXPECT_EQ(std::filesystem::file_size(path),
            kSegmentHeaderSize + 10 * kSegmentSampleStride);
}

// --- Corruption matrix ----------------------------------------------------

class SegmentCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_.path();
    path_ = dir_ + "/seg.seg";
    auto writer = SegmentWriter::Create(path_, StoreSeriesKey("s"), 4, 256);
    ASSERT_NE(writer, nullptr);
    writer->AppendBatch(MakePoints(32));
    ASSERT_TRUE(writer->Seal().ok());
  }

  std::vector<uint8_t> ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  }

  void WriteFile(const std::vector<uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  // Patches raw header fields and recomputes both CRCs so validation
  // reaches the semantic checks behind them.
  void PatchHeaderAndFixCrcs(std::vector<uint8_t>& bytes, size_t offset,
                             const void* value, size_t len) {
    std::memcpy(bytes.data() + offset, value, len);
    SegmentHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    const size_t payload =
        static_cast<size_t>(header.count) * kSegmentSampleStride;
    if (bytes.size() >= kSegmentHeaderSize + payload) {
      const uint8_t* deltas = bytes.data() + kSegmentHeaderSize;
      const uint8_t* values =
          deltas + static_cast<size_t>(header.capacity) * sizeof(int64_t);
      uint32_t crc = StoreCrc32(
          deltas, static_cast<size_t>(header.count) * sizeof(int64_t));
      crc = StoreCrc32(
          values, static_cast<size_t>(header.count) * sizeof(double), crc);
      header.data_crc = crc;
    }
    header.header_crc = StoreCrc32(&header, kSegmentHeaderSize - 4);
    std::memcpy(bytes.data(), &header, sizeof(header));
  }

  StoreError OpenError() {
    auto opened = SegmentReader::Open(path_);
    EXPECT_FALSE(opened.status.ok());
    EXPECT_EQ(opened.reader, nullptr);
    EXPECT_FALSE(opened.status.message.empty());
    return opened.status.error;
  }

  const ScratchDir scratch_{"segment_corrupt"};
  std::string dir_;
  std::string path_;
};

TEST_F(SegmentCorruptionTest, MissingFileIsIo) {
  std::filesystem::remove(path_);
  EXPECT_EQ(OpenError(), StoreError::kIo);
}

TEST_F(SegmentCorruptionTest, TruncatedHeaderIsTruncated) {
  auto bytes = ReadFile();
  bytes.resize(32);
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kTruncated);
}

TEST_F(SegmentCorruptionTest, TruncatedPayloadIsTruncated) {
  auto bytes = ReadFile();
  bytes.resize(bytes.size() - 8);
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kTruncated);
}

TEST_F(SegmentCorruptionTest, BadMagicIsBadMagic) {
  auto bytes = ReadFile();
  bytes[0] = 'X';
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kBadMagic);
}

TEST_F(SegmentCorruptionTest, FlippedHeaderByteIsBadCrc) {
  auto bytes = ReadFile();
  bytes[24] ^= 0xff;  // count field, CRC not recomputed.
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kBadCrc);
}

TEST_F(SegmentCorruptionTest, FlippedPayloadByteIsBadCrc) {
  auto bytes = ReadFile();
  bytes[bytes.size() - 1] ^= 0xff;
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kBadCrc);
}

TEST_F(SegmentCorruptionTest, FutureVersionIsVersionSkew) {
  auto bytes = ReadFile();
  const uint32_t version = kSegmentVersion + 1;
  PatchHeaderAndFixCrcs(bytes, 8, &version, sizeof(version));
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kVersionSkew);
}

TEST_F(SegmentCorruptionTest, CountPastCapacityIsCorruptLength) {
  auto bytes = ReadFile();
  uint64_t count;
  std::memcpy(&count, bytes.data() + 24, sizeof(count));
  const uint64_t absurd = count + 1'000'000;
  PatchHeaderAndFixCrcs(bytes, 24, &absurd, sizeof(absurd));
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kCorruptLength);
}

TEST_F(SegmentCorruptionTest, NonzeroFirstDeltaIsBadRecord) {
  auto bytes = ReadFile();
  const int64_t bad = 5;
  PatchHeaderAndFixCrcs(bytes, kSegmentHeaderSize, &bad, sizeof(bad));
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kBadRecord);
}

TEST_F(SegmentCorruptionTest, NegativeDeltaIsBadRecord) {
  auto bytes = ReadFile();
  const int64_t bad = -1;
  PatchHeaderAndFixCrcs(bytes, kSegmentHeaderSize + sizeof(int64_t), &bad,
                        sizeof(bad));
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kBadRecord);
}

TEST_F(SegmentCorruptionTest, LastTimeMismatchIsBadRecord) {
  auto bytes = ReadFile();
  int64_t last;
  std::memcpy(&last, bytes.data() + 48, sizeof(last));
  const int64_t wrong = last + 1;
  PatchHeaderAndFixCrcs(bytes, 48, &wrong, sizeof(wrong));
  WriteFile(bytes);
  EXPECT_EQ(OpenError(), StoreError::kBadRecord);
}

TEST_F(SegmentCorruptionTest, MidWriteKillIsTruncated) {
  // An abandoned writer leaves the unsealed header from Create on disk —
  // exactly what a kill between Create and Seal leaves behind.
  const std::string path = dir_ + "/killed.seg";
  {
    auto writer = SegmentWriter::Create(path, 7, 4, 64);
    ASSERT_NE(writer, nullptr);
    writer->AppendBatch(MakePoints(3));
    // No Seal: destructor syncs the mapping but never finalizes the header.
  }
  auto opened = SegmentReader::Open(path);
  EXPECT_FALSE(opened.status.ok());
  EXPECT_EQ(opened.status.error, StoreError::kTruncated);
}

// --- Cold store: spill policy + stitched reads ----------------------------

TEST(ColdStore, SpillKeepsHotTierUnderBudgetAndHistoryLossless) {
  const ScratchDir scratch("spill_budget");
  const std::string& dir = scratch.path();
  ColdStoreConfig config;
  config.dir = dir;
  config.segment_samples = 16;
  auto created = ColdStore::Create(config);
  ASSERT_TRUE(created.status.ok()) << created.status.message;

  TimeSeriesDb db;
  db.AttachColdStore(created.store.get(), 8);
  EXPECT_TRUE(db.spill_enabled());

  const std::vector<TimePoint> points = MakePoints(100);
  const SeriesId id = db.Intern("power/total");
  for (const TimePoint& point : points) {
    db.Append(id, point.time, point.value);
    EXPECT_LE(db.Series(id).size(), 8u);  // Budget holds after every append.
  }
  EXPECT_GT(db.samples_spilled(), 0u);
  EXPECT_EQ(db.samples_spilled() + db.Series(id).size(), points.size());
  EXPECT_EQ(db.TotalPoints(), points.size());

  // Latest stays a hot-only read; full history is stitched and lossless.
  ASSERT_TRUE(db.Latest(id).has_value());
  EXPECT_EQ(db.Latest(id)->time.micros(), points.back().time.micros());
  ExpectSamePoints(Materialized(db, "power/total"), points);

  // The deprecated copying shims keep seeing the full spilled history.
  EXPECT_EQ(db.Values("power/total").size(), points.size());
  EXPECT_EQ(db.Query("power/total", SimTime(), SimTime::Max()).size(),
            points.size());
}

TEST(ColdStore, QueryStitchedSlicesRangesAcrossTiers) {
  const ScratchDir scratch("stitched_range");
  const std::string& dir = scratch.path();
  ColdStoreConfig config;
  config.dir = dir;
  config.segment_samples = 8;
  auto created = ColdStore::Create(config);
  ASSERT_TRUE(created.status.ok()) << created.status.message;

  TimeSeriesDb spilled;
  spilled.AttachColdStore(created.store.get(), 4);
  TimeSeriesDb ram;  // The reference answer.
  const std::vector<TimePoint> points = MakePoints(64);
  for (const TimePoint& point : points) {
    spilled.Append("s", point.time, point.value);
    ram.Append("s", point.time, point.value);
  }
  // Slice at every third boundary, including ranges fully inside the cold
  // tier, spanning the seam, and fully hot.
  for (size_t lo = 0; lo < points.size(); lo += 3) {
    for (size_t hi = lo; hi < points.size(); hi += 7) {
      const SimTime from = points[lo].time;
      const SimTime to = points[hi].time;
      const auto got = spilled.QueryStitched("s", from, to).Materialize();
      const auto want = ram.Query("s", from, to);
      ExpectSamePoints(got, want);
    }
  }
}

TEST(ColdStore, ReservePointsClampsToHotBudget) {
  const ScratchDir scratch("reserve_clamp");
  const std::string& dir = scratch.path();
  auto created = ColdStore::Create(ColdStoreConfig{dir, 64, 16});
  ASSERT_TRUE(created.status.ok()) << created.status.message;
  TimeSeriesDb db;
  db.AttachColdStore(created.store.get(), 32);
  const SeriesId id = db.Intern("s");
  db.ReservePoints(id, 1'000'000);  // Must not reserve a million slots.
  for (const TimePoint& point : MakePoints(100)) {
    db.Append(id, point.time, point.value);
  }
  EXPECT_LE(db.Series(id).size(), 32u);
}

// --- Instant restart ------------------------------------------------------

TEST(ColdStore, OpenExistingServesIdenticalBytesWithoutResimulating) {
  const ScratchDir scratch("restart");
  const std::string& dir = scratch.path();
  const std::vector<TimePoint> points = MakePoints(200);
  uint64_t cold_count = 0;
  {
    ColdStoreConfig config;
    config.dir = dir;
    config.segment_samples = 32;
    auto created = ColdStore::Create(config);
    ASSERT_TRUE(created.status.ok()) << created.status.message;
    TimeSeriesDb db;
    db.AttachColdStore(created.store.get(), 16);
    for (const TimePoint& point : points) {
      db.Append("power/rack0", point.time, point.value);
    }
    cold_count = created.store->SamplesForSeries("power/rack0");
    ASSERT_TRUE(created.store->Flush().ok());
  }  // Store destroyed: everything sealed + manifest written.

  auto reopened = ColdStore::OpenExisting(ColdStoreConfig{dir});
  ASSERT_TRUE(reopened.status.ok()) << reopened.status.message;
  EXPECT_EQ(reopened.store->SamplesForSeries("power/rack0"), cold_count);

  TimeSeriesDb restarted;
  restarted.AttachColdStore(reopened.store.get(), 16);
  // The restart path interned the store's series: visible by name with the
  // spilled prefix of the original history, bit-exact.
  EXPECT_EQ(restarted.SeriesNames(),
            std::vector<std::string>{"power/rack0"});
  const auto after = Materialized(restarted, "power/rack0");
  ExpectSamePoints(after,
                   std::vector<TimePoint>(
                       points.begin(),
                       points.begin() + static_cast<ptrdiff_t>(cold_count)));

  // And the reopened store accepts further appends (a new process
  // continuing the run).
  restarted.Append("power/rack0", SimTime::Hours(1000), 42.0);
  EXPECT_EQ(restarted.TotalPoints(), cold_count + 1);
}

TEST(ColdStore, FlushIsDurableWhileStoreStaysLive) {
  const ScratchDir scratch("flush_live");
  const std::string& dir = scratch.path();
  auto created = ColdStore::Create(ColdStoreConfig{dir});
  ASSERT_TRUE(created.status.ok()) << created.status.message;
  const std::vector<TimePoint> points = MakePoints(20);
  created.store->AppendBatch("s", points);
  ASSERT_TRUE(created.store->Flush().ok());
  // A second process (here: a second store object) can already read
  // everything the first one flushed.
  auto reopened = ColdStore::OpenExisting(ColdStoreConfig{dir});
  ASSERT_TRUE(reopened.status.ok()) << reopened.status.message;
  EXPECT_EQ(reopened.store->SamplesForSeries("s"), points.size());
  // The live store keeps serving queries after its Flush too.
  std::vector<ColdPiece> pieces;
  created.store->QueryPieces("s", SimTime(), SimTime::Max(), &pieces);
  size_t total = 0;
  for (const ColdPiece& piece : pieces) {
    total += piece.size();
  }
  EXPECT_EQ(total, points.size());
}

// --- Manifest corruption matrix -------------------------------------------

class ManifestCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_.path();
    auto created = ColdStore::Create(ColdStoreConfig{dir_, 16, 4});
    ASSERT_TRUE(created.status.ok()) << created.status.message;
    created.store->AppendBatch("power/total", MakePoints(40));
    ASSERT_TRUE(created.store->Flush().ok());
    manifest_ = dir_ + "/manifest.ampts";
  }

  std::string ReadManifest() {
    std::ifstream in(manifest_, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)), {});
    return text;
  }

  void WriteManifest(const std::string& text) {
    std::ofstream out(manifest_, std::ios::binary | std::ios::trunc);
    out << text;
  }

  StoreError OpenError() {
    auto opened = ColdStore::OpenExisting(ColdStoreConfig{dir_});
    EXPECT_FALSE(opened.status.ok());
    EXPECT_EQ(opened.store, nullptr);
    EXPECT_FALSE(opened.status.message.empty());
    return opened.status.error;
  }

  const ScratchDir scratch_{"manifest_corrupt"};
  std::string dir_;
  std::string manifest_;
};

TEST_F(ManifestCorruptionTest, MissingManifestIsIo) {
  std::filesystem::remove(manifest_);
  EXPECT_EQ(OpenError(), StoreError::kIo);
}

TEST_F(ManifestCorruptionTest, EmptyManifestIsBadMagic) {
  WriteManifest("");
  EXPECT_EQ(OpenError(), StoreError::kBadMagic);
}

TEST_F(ManifestCorruptionTest, WrongMagicIsBadMagic) {
  WriteManifest("NOTAMANI 1\nend 0\n");
  EXPECT_EQ(OpenError(), StoreError::kBadMagic);
}

TEST_F(ManifestCorruptionTest, FutureVersionIsVersionSkew) {
  std::string text = ReadManifest();
  text.replace(text.find(" 1\n"), 3, " 2\n");
  WriteManifest(text);
  EXPECT_EQ(OpenError(), StoreError::kVersionSkew);
}

TEST_F(ManifestCorruptionTest, MissingEndMarkerIsBadManifest) {
  std::string text = ReadManifest();
  text = text.substr(0, text.find("end "));
  WriteManifest(text);
  EXPECT_EQ(OpenError(), StoreError::kBadManifest);
}

TEST_F(ManifestCorruptionTest, EndCountMismatchIsBadManifest) {
  std::string text = ReadManifest();
  const size_t at = text.find("end ");
  ASSERT_NE(at, std::string::npos);
  text = text.substr(0, at) + "end 99\n";
  WriteManifest(text);
  EXPECT_EQ(OpenError(), StoreError::kBadManifest);
}

TEST_F(ManifestCorruptionTest, ContentAfterEndIsBadManifest) {
  WriteManifest(ReadManifest() + "trailing garbage\n");
  EXPECT_EQ(OpenError(), StoreError::kBadManifest);
}

TEST_F(ManifestCorruptionTest, MalformedSegLineIsBadManifest) {
  std::string text = ReadManifest();
  const size_t at = text.find("seg ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 4, "segX");
  WriteManifest(text);
  EXPECT_EQ(OpenError(), StoreError::kBadManifest);
}

TEST_F(ManifestCorruptionTest, KeyNameMismatchIsBadManifest) {
  std::string text = ReadManifest();
  const size_t at = text.find("power/total");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 11, "power/other");
  WriteManifest(text);
  EXPECT_EQ(OpenError(), StoreError::kBadManifest);
}

TEST_F(ManifestCorruptionTest, CountDisagreementIsBadManifest) {
  // The first seg line declares 16 samples (segment_samples = 16); claim 15.
  std::string text = ReadManifest();
  const size_t at = text.find("seg 16 ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 7, "seg 15 ");
  WriteManifest(text);
  EXPECT_EQ(OpenError(), StoreError::kBadManifest);
}

TEST_F(ManifestCorruptionTest, MissingSegmentFileIsIo) {
  // Remove the first listed segment file; the manifest now points at
  // nothing.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".seg") {
      std::filesystem::remove(entry.path());
      break;
    }
  }
  EXPECT_EQ(OpenError(), StoreError::kIo);
}

TEST_F(ManifestCorruptionTest, CorruptListedSegmentSurfacesSegmentError) {
  // Flip a payload byte in one listed segment: OpenExisting must fail with
  // the segment's own structured error, prefixed with the file name.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".seg") {
      continue;
    }
    std::fstream file(entry.path(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-1, std::ios::end);
    char byte;
    file.seekg(-1, std::ios::end);
    file.get(byte);
    file.seekp(-1, std::ios::end);
    file.put(static_cast<char>(byte ^ 0x1));
    break;
  }
  auto opened = ColdStore::OpenExisting(ColdStoreConfig{dir_});
  ASSERT_FALSE(opened.status.ok());
  EXPECT_EQ(opened.status.error, StoreError::kBadCrc);
  EXPECT_NE(opened.status.message.find("segment "), std::string::npos);
}

}  // namespace
}  // namespace ampere
