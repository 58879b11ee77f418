// Fixed-width memory-mapped segment files for the TimeSeriesDb cold tier.
//
// One segment holds one contiguous run of samples for one series, stored
// columnar so reads are zero-copy and bit-exact:
//
//   Layout (all integers little-endian, 64-byte header):
//     magic[8]   = "AMPTSDB1"
//     u32        version        (1 for ampere.tsdb.v1)
//     u32        flags          (bit 0 = sealed)
//     u64        series_key     (FNV-1a 64 of the series name)
//     u64        count          (committed samples; finalized at seal)
//     u64        capacity       (allocated sample slots; columns sized to it)
//     i64        first_time_us  (absolute time of sample 0)
//     i64        last_time_us   (absolute time of sample count-1)
//     u32        data_crc       (CRC32 of committed delta+value columns)
//     u32        header_crc     (CRC32 of header bytes before this field)
//   payload:
//     i64        delta_us[capacity]  at offset 64
//     f64        value[capacity]     at offset 64 + 8*capacity
//
// Timestamps are delta-of-timestamp encoded (delta_us[0] = 0, delta_us[i] =
// t[i] - t[i-1], all >= 0 because series are append-ordered); values are raw
// IEEE-754 doubles, so a read reconstructs the exact bits that were written.
// A writer creates its file sparse at full capacity (ftruncate allocates no
// blocks), so the column layout never moves while it fills. When it is full
// (or at a flush) it seals: the value column moves down to its packed
// offset, the file shrinks to the committed columns, count + CRCs are
// finalized, pages go to writeback and the file is unmapped; the cold store
// rolls to a fresh segment file.
// Steady-state RSS is bounded as the segment fills, not just at seal: pages
// of the columns that are fully written are released from RSS eagerly
// (madvise; the data stays in page cache), leaving only the unfinished tail
// pages resident.
//
// Mapping uses POSIX mmap, ftruncate and madvise, so the cold tier needs a
// POSIX platform.
//
// Versioning rules mirror docs/traces.md: any layout change a v1 reader
// cannot interpret bumps `version`, and readers reject unknown versions with
// StoreError::kVersionSkew rather than guessing.
//
// The reader NEVER throws or CHECK-fails on malformed bytes — a segment
// file is external data (it may be truncated by a crash, a full disk, or a
// hostile editor). Every failure mode maps to a structured StoreError with
// a byte offset, which the fuzz suite (tests/fuzz_invariants_test.cpp) pins
// under ASan/UBSan.

#ifndef SRC_TELEMETRY_MMAP_SEGMENT_H_
#define SRC_TELEMETRY_MMAP_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/common/time.h"
#include "src/telemetry/timeseries_db.h"  // TimePoint (the spill unit).

namespace ampere {

// Mirrors TraceError (src/workload/trace_format.h): the storage layer's
// structured failure taxonomy.
enum class StoreError : int {
  kNone = 0,
  kIo,             // File unreadable / unwritable / unmappable.
  kBadMagic,       // Not an AMPTSDB1 segment (or not an AMPTSMAN manifest).
  kVersionSkew,    // Version this reader does not understand.
  kTruncated,      // File ends before the declared content, or unsealed
                   // segment (mid-write kill) reached via the manifest.
  kCorruptLength,  // count/capacity impossible (count > capacity, absurd).
  kBadRecord,      // Decoded samples violate invariants (negative delta,
                   // first/last mismatch, empty sealed segment).
  kBadCrc,         // Header or data CRC mismatch.
  kBadManifest,    // Manifest unparseable or inconsistent with segments.
};

const char* StoreErrorName(StoreError error);

// Structured outcome for every open/validate path. Mirrors TraceParseResult.
struct StoreStatus {
  StoreError error = StoreError::kNone;
  std::string message;     // Human-readable, includes file + byte offset.
  size_t byte_offset = 0;  // Where validation stopped.

  bool ok() const { return error == StoreError::kNone; }
};

// CRC-32 (IEEE 802.3, reflected). `seed` chains multi-range checksums.
uint32_t StoreCrc32(const void* data, size_t len, uint32_t seed = 0);

// FNV-1a 64-bit hash of the series name; informational (the manifest maps
// names to files, the key just ties a segment back to its series).
uint64_t StoreSeriesKey(std::string_view name);

inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr uint32_t kSegmentFlagSealed = 1u << 0;
inline constexpr size_t kSegmentHeaderSize = 64;
inline constexpr size_t kSegmentSampleStride = 16;  // i64 delta + f64 value.

// POD image of the 64-byte header. Kept as a shadow struct and memcpy'd
// to/from the mapping (no aliasing games with the raw bytes).
struct SegmentHeader {
  char magic[8];
  uint32_t version = kSegmentVersion;
  uint32_t flags = 0;
  uint64_t series_key = 0;
  uint64_t count = 0;
  uint64_t capacity = 0;
  int64_t first_time_us = 0;
  int64_t last_time_us = 0;
  uint32_t data_crc = 0;
  uint32_t header_crc = 0;
};
static_assert(sizeof(SegmentHeader) == kSegmentHeaderSize,
              "segment header must be exactly 64 bytes");

// Resizable POSIX file mapping (ftruncate + remap). Move-only; Close()
// hands writable mappings to writeback.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Creates (truncating) `path` at `size` bytes and maps it read-write.
  bool CreateRw(const std::string& path, size_t size);
  // Maps an existing file read-only, whole length.
  bool OpenRo(const std::string& path);
  // Resizes a writable mapping to `new_size` bytes (ftruncate + remap).
  bool Resize(size_t new_size);
  // Hands a writable mapping's dirty pages to the kernel for writeback
  // (msync MS_ASYNC). Dirty page cache survives process
  // death, which is the crash model this tier promises; a synchronous flush
  // here would serialize every seal behind the disk (observed 2.4x
  // closed-loop slowdown at hyperscale with 62k seals on ext4).
  bool Sync();
  // Drops the resident pages fully inside [begin, end) from this process
  // (madvise MADV_DONTNEED, aligned inward to page boundaries). For a
  // shared file mapping this never discards data — dirty pages stay in the
  // page cache for writeback and refault on the next touch — it only takes
  // them out of RSS.
  void ReleaseWritten(size_t begin, size_t end);
  // Unmaps. Writable mappings are handed to writeback first.
  void Close();

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool writable_ = false;
  int fd_ = -1;  // Writable mappings only.
};

// Writable active segment for one series. Appends are a stride-16 columnar
// write into the mapping; Seal() finalizes count + CRCs and unmaps.
class SegmentWriter {
 public:
  // Creates `path` sparse at `capacity` samples; once that many have been
  // appended the writer reports full. Returns nullptr on I/O failure.
  static std::unique_ptr<SegmentWriter> Create(const std::string& path,
                                               uint64_t series_key,
                                               size_t capacity);

  // Appends as many of `batch` as fit (batch times non-decreasing and >=
  // the segment tail — enforced upstream by TimeSeriesDb's append checks).
  // Returns how many samples were accepted; < batch.size() means full.
  size_t AppendBatch(std::span<const TimePoint> batch);

  // Finalizes the header (count, first/last, CRCs, sealed flag), syncs and
  // unmaps. No appends afterwards. Idempotent.
  StoreStatus Seal();

  size_t count() const { return static_cast<size_t>(header_.count); }
  size_t remaining() const { return capacity_ - count(); }
  bool sealed() const { return (header_.flags & kSegmentFlagSealed) != 0; }
  SimTime first_time() const {
    return SimTime::Micros(header_.first_time_us);
  }
  SimTime last_time() const { return SimTime::Micros(header_.last_time_us); }
  const std::string& path() const { return file_.path(); }

  // Committed columns — stitched queries read the active segment through
  // these. Invalidated by Seal.
  std::span<const int64_t> deltas() const;
  std::span<const double> values() const;

 private:
  SegmentWriter() = default;
  int64_t* delta_column();
  double* value_column();
  // Eager RSS release: pages of the active segment that are fully written
  // are dropped from RSS right away (the data stays in page cache), so the
  // resident cost of an active segment is its unfinished tail pages — not
  // its size. Queries through deltas()/values() refault released pages
  // from page cache transparently.
  void ReleaseWrittenPages();
  void ReleaseColumn(size_t column_offset, size_t written_bytes,
                     size_t* released_end);

  MappedFile file_;
  SegmentHeader header_;  // Shadow; memcpy'd to the mapping on Seal.
  size_t capacity_ = 0;
  size_t released_delta_ = 0;  // File offset the delta column is released to.
  size_t released_value_ = 0;  // Same for the value column.
};

// Read-only sealed segment. Open() validates the full file (magic, version,
// CRCs, monotone deltas, first/last consistency) before serving any view.
class SegmentReader {
 public:
  struct OpenResult {
    StoreStatus status;
    std::unique_ptr<SegmentReader> reader;  // Set only when status.ok().
  };
  static OpenResult Open(const std::string& path);

  size_t count() const { return static_cast<size_t>(header_.count); }
  uint64_t series_key() const { return header_.series_key; }
  SimTime first_time() const {
    return SimTime::Micros(header_.first_time_us);
  }
  SimTime last_time() const { return SimTime::Micros(header_.last_time_us); }

  // Validated columns, count() entries each, backed by the mapping (clean
  // read-only pages: the page cache may drop and refault them at will).
  std::span<const int64_t> deltas() const;
  std::span<const double> values() const;

 private:
  SegmentReader() = default;

  MappedFile file_;
  SegmentHeader header_;  // Validated copy.
};

}  // namespace ampere

#endif  // SRC_TELEMETRY_MMAP_SEGMENT_H_
