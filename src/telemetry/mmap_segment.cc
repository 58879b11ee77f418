#include "src/telemetry/mmap_segment.h"

#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/common/check.h"

namespace ampere {
namespace {

constexpr char kSegmentMagic[8] = {'A', 'M', 'P', 'T', 'S', 'D', 'B', '1'};

// Largest capacity a reader will map: 2^40 bytes of payload (~64G samples
// would be absurd for one segment; anything larger is corruption).
constexpr uint64_t kMaxSaneCapacity = (uint64_t{1} << 40) / kSegmentSampleStride;

// Byte offsets of header fields, for structured error reporting.
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffCount = 24;
constexpr size_t kOffCapacity = 32;
constexpr size_t kOffDataCrc = 56;
constexpr size_t kOffHeaderCrc = 60;

StoreStatus MakeError(StoreError error, size_t byte_offset,
                      const std::string& detail) {
  StoreStatus status;
  status.error = error;
  status.byte_offset = byte_offset;
  std::ostringstream message;
  message << StoreErrorName(error) << " at byte " << byte_offset << ": "
          << detail;
  status.message = message.str();
  return status;
}

uint32_t HeaderCrc(const SegmentHeader& header) {
  // CRC of everything before the header_crc field itself.
  return StoreCrc32(&header, kOffHeaderCrc);
}

}  // namespace

const char* StoreErrorName(StoreError error) {
  switch (error) {
    case StoreError::kNone:
      return "kNone";
    case StoreError::kIo:
      return "kIo";
    case StoreError::kBadMagic:
      return "kBadMagic";
    case StoreError::kVersionSkew:
      return "kVersionSkew";
    case StoreError::kTruncated:
      return "kTruncated";
    case StoreError::kCorruptLength:
      return "kCorruptLength";
    case StoreError::kBadRecord:
      return "kBadRecord";
    case StoreError::kBadCrc:
      return "kBadCrc";
    case StoreError::kBadManifest:
      return "kBadManifest";
  }
  return "kUnknown";
}

uint32_t StoreCrc32(const void* data, size_t len, uint32_t seed) {
  // Table-driven CRC-32 (IEEE 802.3, reflected), table built on first use.
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint64_t StoreSeriesKey(std::string_view name) {
  // FNV-1a 64.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- MappedFile ------------------------------------------------------------

MappedFile::~MappedFile() { Close(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_(std::move(other.path_)),
      data_(other.data_),
      size_(other.size_),
      writable_(other.writable_),
      fd_(other.fd_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.fd_ = -1;
  other.writable_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    data_ = other.data_;
    size_ = other.size_;
    writable_ = other.writable_;
    fd_ = other.fd_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.fd_ = -1;
    other.writable_ = false;
  }
  return *this;
}

bool MappedFile::CreateRw(const std::string& path, size_t size) {
  Close();
  AMPERE_CHECK(size > 0) << "zero-size mapping for " << path;
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return false;
  }
  void* mapping =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mapping == MAP_FAILED) {
    ::close(fd);
    return false;
  }
  path_ = path;
  data_ = static_cast<uint8_t*>(mapping);
  size_ = size;
  writable_ = true;
  fd_ = fd;
  return true;
}

bool MappedFile::OpenRo(const std::string& path) {
  Close();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return false;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (mapping == MAP_FAILED) {
    return false;
  }
  path_ = path;
  data_ = static_cast<uint8_t*>(mapping);
  size_ = size;
  writable_ = false;
  fd_ = -1;
  return true;
}

bool MappedFile::Resize(size_t new_size) {
  AMPERE_CHECK(valid() && writable_) << "Resize of non-writable mapping";
  if (new_size == size_) {
    return true;
  }
  // Portable resize: unmap, ftruncate, remap (mremap is Linux-only). The
  // address may move; callers re-derive their column pointers.
  if (::munmap(data_, size_) != 0) {
    return false;
  }
  data_ = nullptr;
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return false;
  }
  void* mapping =
      ::mmap(nullptr, new_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (mapping == MAP_FAILED) {
    return false;
  }
  data_ = static_cast<uint8_t*>(mapping);
  size_ = new_size;
  return true;
}

bool MappedFile::Sync() {
  if (!valid() || !writable_) {
    return true;
  }
  // MS_ASYNC, not MS_SYNC: the pages are already in page cache (which is
  // what survives a process crash); waiting for the disk here would put a
  // journaled write barrier inside every seal.
  return ::msync(data_, size_, MS_ASYNC) == 0;
}

void MappedFile::ReleaseWritten(size_t begin, size_t end) {
  if (!valid() || !writable_) {
    return;
  }
  static const size_t kPage = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t first = (begin + kPage - 1) / kPage * kPage;
  size_t last = end / kPage * kPage;
  if (last > size_) {
    last = size_ / kPage * kPage;
  }
  if (last > first) {
    ::madvise(data_ + first, last - first, MADV_DONTNEED);
  }
}

void MappedFile::Close() {
  if (valid()) {
    if (writable_) {
      ::msync(data_, size_, MS_ASYNC);
    }
    ::munmap(data_, size_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
  data_ = nullptr;
  size_ = 0;
  fd_ = -1;
  writable_ = false;
}

// --- SegmentWriter ---------------------------------------------------------

std::unique_ptr<SegmentWriter> SegmentWriter::Create(const std::string& path,
                                                     uint64_t series_key,
                                                     size_t capacity) {
  AMPERE_CHECK(capacity > 0) << "segment capacity must be positive";
  auto writer = std::unique_ptr<SegmentWriter>(new SegmentWriter());
  const size_t bytes = kSegmentHeaderSize + kSegmentSampleStride * capacity;
  if (!writer->file_.CreateRw(path, bytes)) {
    return nullptr;
  }
  writer->capacity_ = capacity;
  std::memcpy(writer->header_.magic, kSegmentMagic, sizeof(kSegmentMagic));
  writer->header_.version = kSegmentVersion;
  writer->header_.flags = 0;
  writer->header_.series_key = series_key;
  writer->header_.capacity = capacity;
  writer->header_.header_crc = HeaderCrc(writer->header_);
  // Land an unsealed header immediately so a mid-write kill leaves a file a
  // reader classifies deterministically (kTruncated: not sealed).
  std::memcpy(writer->file_.data(), &writer->header_, kSegmentHeaderSize);
  return writer;
}

int64_t* SegmentWriter::delta_column() {
  return reinterpret_cast<int64_t*>(file_.data() + kSegmentHeaderSize);
}

double* SegmentWriter::value_column() {
  return reinterpret_cast<double*>(file_.data() + kSegmentHeaderSize +
                                   sizeof(int64_t) * capacity_);
}

std::span<const int64_t> SegmentWriter::deltas() const {
  return {reinterpret_cast<const int64_t*>(file_.data() + kSegmentHeaderSize),
          count()};
}

std::span<const double> SegmentWriter::values() const {
  return {reinterpret_cast<const double*>(file_.data() + kSegmentHeaderSize +
                                          sizeof(int64_t) * capacity_),
          count()};
}

size_t SegmentWriter::AppendBatch(std::span<const TimePoint> batch) {
  AMPERE_CHECK(!sealed()) << "append to sealed segment " << file_.path();
  size_t accepted = 0;
  for (const TimePoint& point : batch) {
    const size_t n = count();
    if (n == capacity_) {
      break;  // Full: the cold store seals and rolls to a new segment.
    }
    const int64_t t = point.time.micros();
    if (n == 0) {
      header_.first_time_us = t;
      delta_column()[0] = 0;
    } else {
      const int64_t delta = t - header_.last_time_us;
      AMPERE_DCHECK(delta >= 0) << "out-of-order spill into " << file_.path();
      delta_column()[n] = delta;
    }
    value_column()[n] = point.value;
    header_.last_time_us = t;
    header_.count = n + 1;
    ++accepted;
  }
  ReleaseWrittenPages();
  return accepted;
}

void SegmentWriter::ReleaseWrittenPages() {
  const size_t n = count();
  ReleaseColumn(kSegmentHeaderSize, sizeof(int64_t) * n, &released_delta_);
  ReleaseColumn(kSegmentHeaderSize + sizeof(int64_t) * capacity_,
                sizeof(double) * n, &released_value_);
}

void SegmentWriter::ReleaseColumn(size_t column_offset, size_t written_bytes,
                                  size_t* released_end) {
  // 4096 is a granule for rate-limiting the madvise calls, not an assumed
  // page size — ReleaseWritten aligns to the real page inward, so a larger
  // page just batches more.
  constexpr size_t kGranule = 4096;
  if (*released_end < column_offset) {
    *released_end = column_offset;
  }
  const size_t frontier = column_offset + written_bytes;
  if (frontier < *released_end + kGranule) {
    return;  // Less than a granule newly completed; wait for more.
  }
  file_.ReleaseWritten(*released_end, frontier);
  *released_end = frontier / kGranule * kGranule;
}

StoreStatus SegmentWriter::Seal() {
  if (sealed()) {
    return StoreStatus{};
  }
  AMPERE_DCHECK(count() > 0) << "sealing empty segment " << file_.path();
  const size_t committed = count();
  if (committed < capacity_) {
    // Trim the slack: move the value column down to its packed offset and
    // shrink the file to exactly header + committed columns.
    std::vector<double> saved(committed);
    std::memcpy(saved.data(), value_column(), sizeof(double) * committed);
    const size_t packed =
        kSegmentHeaderSize + kSegmentSampleStride * committed;
    if (!file_.Resize(packed)) {
      return MakeError(StoreError::kIo, 0,
                       "shrink failed for " + file_.path());
    }
    capacity_ = committed;
    header_.capacity = committed;
    std::memcpy(value_column(), saved.data(), sizeof(double) * committed);
  }
  uint32_t crc = StoreCrc32(delta_column(), sizeof(int64_t) * committed);
  crc = StoreCrc32(value_column(), sizeof(double) * committed, crc);
  header_.data_crc = crc;
  header_.flags |= kSegmentFlagSealed;
  header_.header_crc = HeaderCrc(header_);
  std::memcpy(file_.data(), &header_, kSegmentHeaderSize);
  if (!file_.Sync()) {
    return MakeError(StoreError::kIo, 0, "sync failed for " + file_.path());
  }
  // Unmap: a sealed segment holds no dirty pages; queries reopen read-only.
  const std::string path = file_.path();
  file_.Close();
  return StoreStatus{};
}

// --- SegmentReader ---------------------------------------------------------

SegmentReader::OpenResult SegmentReader::Open(const std::string& path) {
  OpenResult result;
  auto reader = std::unique_ptr<SegmentReader>(new SegmentReader());
  if (!reader->file_.OpenRo(path)) {
    result.status =
        MakeError(StoreError::kIo, 0, "cannot open segment " + path);
    return result;
  }
  const MappedFile& file = reader->file_;
  if (file.size() < kSegmentHeaderSize) {
    result.status = MakeError(StoreError::kTruncated, file.size(),
                              "file shorter than segment header in " + path);
    return result;
  }
  SegmentHeader& header = reader->header_;
  std::memcpy(&header, file.data(), kSegmentHeaderSize);
  if (std::memcmp(header.magic, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    result.status =
        MakeError(StoreError::kBadMagic, 0, "not an AMPTSDB1 file: " + path);
    return result;
  }
  if (HeaderCrc(header) != header.header_crc) {
    result.status = MakeError(StoreError::kBadCrc, kOffHeaderCrc,
                              "header CRC mismatch in " + path);
    return result;
  }
  if (header.version != kSegmentVersion) {
    result.status =
        MakeError(StoreError::kVersionSkew, kOffVersion,
                  "unsupported segment version " +
                      std::to_string(header.version) + " in " + path);
    return result;
  }
  if ((header.flags & kSegmentFlagSealed) == 0) {
    result.status =
        MakeError(StoreError::kTruncated, kOffFlags,
                  "unsealed segment (mid-write kill?) in " + path);
    return result;
  }
  if (header.count == 0) {
    result.status = MakeError(StoreError::kBadRecord, kOffCount,
                              "sealed segment with zero samples in " + path);
    return result;
  }
  if (header.capacity > kMaxSaneCapacity || header.count > header.capacity) {
    result.status = MakeError(StoreError::kCorruptLength, kOffCapacity,
                              "impossible count/capacity in " + path);
    return result;
  }
  const size_t need = kSegmentHeaderSize +
                      sizeof(int64_t) * static_cast<size_t>(header.capacity) +
                      sizeof(double) * static_cast<size_t>(header.count);
  if (file.size() < need) {
    result.status = MakeError(StoreError::kTruncated, file.size(),
                              "file ends before declared columns in " + path);
    return result;
  }
  const auto deltas = reader->deltas();
  const auto values = reader->values();
  uint32_t crc = StoreCrc32(deltas.data(), sizeof(int64_t) * deltas.size());
  crc = StoreCrc32(values.data(), sizeof(double) * values.size(), crc);
  if (crc != header.data_crc) {
    result.status = MakeError(StoreError::kBadCrc, kOffDataCrc,
                              "data CRC mismatch in " + path);
    return result;
  }
  // Decode-validate the timestamp column: delta[0] must be 0, deltas
  // non-negative, and the prefix sum must land exactly on last_time_us.
  if (deltas[0] != 0) {
    result.status = MakeError(StoreError::kBadRecord, kSegmentHeaderSize,
                              "first delta nonzero in " + path);
    return result;
  }
  int64_t t = header.first_time_us;
  for (size_t i = 1; i < deltas.size(); ++i) {
    const int64_t delta = deltas[i];
    if (delta < 0 ||
        t > std::numeric_limits<int64_t>::max() - delta) {  // Would wrap.
      result.status =
          MakeError(StoreError::kBadRecord,
                    kSegmentHeaderSize + sizeof(int64_t) * i,
                    "negative or overflowing delta in " + path);
      return result;
    }
    t += delta;
  }
  if (t != header.last_time_us) {
    result.status = MakeError(StoreError::kBadRecord, kOffCount,
                              "delta sum does not reach last_time_us in " +
                                  path);
    return result;
  }
  result.reader = std::move(reader);
  return result;
}

std::span<const int64_t> SegmentReader::deltas() const {
  return {reinterpret_cast<const int64_t*>(file_.data() + kSegmentHeaderSize),
          count()};
}

std::span<const double> SegmentReader::values() const {
  return {reinterpret_cast<const double*>(
              file_.data() + kSegmentHeaderSize +
              sizeof(int64_t) * static_cast<size_t>(header_.capacity)),
          count()};
}

}  // namespace ampere
