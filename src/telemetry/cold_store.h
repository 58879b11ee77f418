// Persistent cold tier: per-series sealed mmap segments + a manifest.
//
// The cold store is where TimeSeriesDb spills its oldest hot samples once a
// telemetry frame reaches its hot budget in rows (the spill policy lives in
// TimeSeriesDb::AttachColdStore — the db transposes the oldest rows into
// one run of TimePoints per series and hands each to AppendBatch here as a
// span, exactly like any other batch producer).
// Each series owns a chain of segment files (src/telemetry/mmap_segment.h):
// one *active* segment receiving appends, and zero or more *sealed* segments
// that are CRC-finalized and unmapped. Steady-state RSS is bounded twice
// over: the writer releases fully written pages of the active segment from
// RSS eagerly (they stay in page cache), and sealing unmaps whatever is
// left — so resident cost at hyperscale is the hot tier plus a few tail
// pages per series, independent of how much history is on disk.
//
// The manifest (dir/manifest.ampts) is the directory of sealed segments:
//
//   AMPTSMAN 1
//   seg <count> <first_us> <last_us> <series_key hex> <file> <series name>
//   ...
//   end <segment count>
//
// It is rewritten atomically (tmp + rename) at Create and at Flush — NOT at
// every seal, because the rewrite is O(total segments) and a long spill run
// seals tens of thousands of times. A crash leaves either the previous or
// the new manifest, never a torn one; segments sealed since the last Flush
// (and the destructor flushes) are unreachable garbage a later writer may
// overwrite. OpenExisting — the instant-restart path — parses the manifest
// and fully validates every listed segment before serving a single sample;
// all failures are structured StoreStatus values (never throws on external
// bytes), and the `end` count mirrors the trace format's truncation
// tripwire.
//
// Queries return ColdPiece views (defined next to TimeSeriesDb): zero-copy
// spans over the mapped delta/value columns, stitched with the hot frame
// column by TimeSeriesDb::QueryStitched. Sealed segments are remapped
// lazily on first query (read-only, page-cache backed), so a store that is
// only written keeps no cold mappings at all.

#ifndef SRC_TELEMETRY_COLD_STORE_H_
#define SRC_TELEMETRY_COLD_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/mmap_segment.h"
#include "src/telemetry/timeseries_db.h"

namespace ampere {

struct ColdStoreConfig {
  std::string dir;  // Store directory; created by Create.
  // Active segments are created sparse at this many samples, then seal and
  // roll when full. Segment size does NOT bound resident memory — the
  // writer releases fully written pages from RSS eagerly, so an active
  // segment's resident cost is its unfinished tail pages. Bigger segments
  // mean fewer files and fewer seal cycles; the tradeoff left is file count
  // vs. per-file size.
  size_t segment_samples = 65536;
};

class ColdStore {
 public:
  struct OpenResult {
    StoreStatus status;
    std::unique_ptr<ColdStore> store;  // Set only when status.ok().
  };

  // Starts an empty store: creates `config.dir` (and parents) and writes an
  // empty manifest. Any previous manifest in the directory is replaced.
  static OpenResult Create(const ColdStoreConfig& config);

  // Instant-restart path: parses the manifest and validates every sealed
  // segment (magic, version, CRCs, monotone deltas). The reopened store
  // serves the identical QueryPieces bytes the sealing process saw, and
  // accepts further appends into fresh segments.
  static OpenResult OpenExisting(const ColdStoreConfig& config);

  ~ColdStore();  // Best-effort Flush.
  ColdStore(const ColdStore&) = delete;
  ColdStore& operator=(const ColdStore&) = delete;

  // Appends `batch` (non-decreasing times, at or after the series tail —
  // enforced by the TimeSeriesDb append checks upstream) to the series'
  // active segment, sealing and rolling to new segment files as they fill.
  void AppendBatch(std::string_view series, std::span<const TimePoint> batch);

  // Seals every non-empty active segment and rewrites the manifest. After a
  // Flush the store is fully on disk; further appends open new segments.
  // Returns the first error encountered (but always tries everything).
  StoreStatus Flush();

  // Appends the cold pieces of `series` overlapping [from, to] to `out`, in
  // time order (sealed chain first, then the active segment). Piece spans
  // are invalidated by the next AppendBatch/Flush for the series.
  void QueryPieces(std::string_view series, SimTime from, SimTime to,
                   std::vector<ColdPiece>* out) const;

  // Series with at least one cold sample, sorted.
  std::vector<std::string> SeriesNames() const;
  uint64_t SamplesForSeries(std::string_view series) const;

  uint64_t total_samples() const { return total_samples_; }
  size_t total_segments() const;  // Sealed + non-empty active.
  size_t sealed_segments() const;

  const std::string& dir() const { return config_.dir; }
  std::string ManifestPath() const;

 private:
  struct SealedSegment {
    std::string file;  // Basename inside dir().
    uint64_t count = 0;
    int64_t first_us = 0;
    int64_t last_us = 0;
    // Opened lazily on first query (OpenExisting keeps its validated
    // readers). mutable: lazy open happens under const QueryPieces.
    mutable std::unique_ptr<SegmentReader> reader;
  };
  struct SeriesState {
    std::string name;
    uint64_t key = 0;
    std::vector<SealedSegment> sealed;
    std::unique_ptr<SegmentWriter> active;
    std::string active_file;  // Basename of `active`, for the manifest.
    uint64_t total_samples = 0;
  };

  explicit ColdStore(const ColdStoreConfig& config);

  SeriesState& StateFor(std::string_view series);
  void RollActive(SeriesState& state);   // Seal; manifest waits for Flush.
  StoreStatus SealActive(SeriesState& state);
  StoreStatus WriteManifest() const;
  std::string NextSegmentPath(const SeriesState& state, std::string* basename);

  ColdStoreConfig config_;
  // Sorted by name; heterogeneous lookup via std::less<>. Sorted order also
  // makes the manifest bytes independent of series creation order.
  std::map<std::string, std::unique_ptr<SeriesState>, std::less<>> series_;
  size_t file_counter_ = 0;  // Monotonic; names segment files uniquely.
  uint64_t total_samples_ = 0;
};

}  // namespace ampere

#endif  // SRC_TELEMETRY_COLD_STORE_H_
