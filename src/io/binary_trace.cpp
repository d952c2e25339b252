#include "io/binary_trace.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

namespace losstomo::io {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'L', 'T', 'B', 'T'};
constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kHeaderCrcOffset = 60;  // CRC-32 of bytes [0, 60)
constexpr std::size_t kWriterBufferBytes = 1u << 20;

void put_le(std::uint8_t* p, std::uint64_t v, std::size_t bytes) {
  for (std::size_t b = 0; b < bytes; ++b) {
    p[b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < bytes; ++b) {
    v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  }
  return v;
}

// Serializes a block of doubles as little-endian bytes.  On little-endian
// hardware (every deployment target) this is ONE memcpy; the per-value
// loop exists only for big-endian portability.
void doubles_to_le(const double* values, std::size_t count,
                   std::uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, values, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      put_le(out + i * 8, std::bit_cast<std::uint64_t>(values[i]), 8);
    }
  }
}

[[noreturn]] void throw_io(const std::string& what, const std::string& file) {
  throw CheckpointError(CheckpointErrorKind::kIo,
                        what + " '" + file + "': " + std::strerror(errno));
}

}  // namespace

// -- BinaryTraceWriter ------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(const std::string& file,
                                     std::size_t paths, bool log_transformed)
    : file_(file), paths_(paths), log_transformed_(log_transformed) {
  if (paths_ == 0) {
    throw std::invalid_argument("binary trace needs paths > 0");
  }
  fd_ = ::open(file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw_io("cannot open binary trace", file_);
  // Reserve the header; it stays all-zero (= rejected by every reader)
  // until finish() seals the trace, so a torn write can never parse.
  const std::array<std::uint8_t, kHeaderSize> zeros{};
  write_all(zeros.data(), zeros.size());
}

BinaryTraceWriter::~BinaryTraceWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void BinaryTraceWriter::write_all(const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ::ssize_t wrote = ::write(fd_, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_io("write failed on binary trace", file_);
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

void BinaryTraceWriter::flush_buffer() {
  if (buffer_.empty()) return;
  write_all(buffer_.data(), buffer_.size());
  buffer_.clear();
}

void BinaryTraceWriter::append(std::span<const double> row) {
  if (row.size() != paths_) {
    throw std::invalid_argument("binary trace row arity " +
                                std::to_string(row.size()) + " != paths " +
                                std::to_string(paths_));
  }
  append_block(row, 1);
}

void BinaryTraceWriter::append_block(std::span<const double> values,
                                     std::size_t rows) {
  if (finished_) {
    throw std::logic_error("append to a finished binary trace");
  }
  if (values.size() != rows * paths_) {
    throw std::invalid_argument("binary trace block size mismatch");
  }
  const std::size_t bytes = values.size() * sizeof(double);
  const std::size_t at = buffer_.size();
  buffer_.resize(at + bytes);
  doubles_to_le(values.data(), values.size(), buffer_.data() + at);
  payload_crc_.update(std::span<const std::uint8_t>(buffer_.data() + at,
                                                    bytes));
  snapshots_ += rows;
  if (buffer_.size() >= kWriterBufferBytes) flush_buffer();
}

void BinaryTraceWriter::finish() {
  if (finished_) return;
  flush_buffer();
  std::array<std::uint8_t, kHeaderSize> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  put_le(header.data() + 4, kVersion, 4);
  put_le(header.data() + 8, log_transformed_ ? kFlagLogTransformed : 0u, 4);
  put_le(header.data() + 16, paths_, 8);
  put_le(header.data() + 24, snapshots_, 8);
  put_le(header.data() + 32,
         static_cast<std::uint64_t>(paths_) * snapshots_ * sizeof(double), 8);
  put_le(header.data() + 40, payload_crc_.value(), 4);
  put_le(header.data() + kHeaderCrcOffset,
         crc32(std::span<const std::uint8_t>(header.data(), kHeaderCrcOffset)),
         4);
  if (::lseek(fd_, 0, SEEK_SET) != 0) {
    throw_io("cannot seek binary trace", file_);
  }
  write_all(header.data(), header.size());
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw_io("close failed on binary trace", file_);
  }
  fd_ = -1;
  finished_ = true;
}

// -- BinaryTraceReader ------------------------------------------------------

void BinaryTraceReader::validate_and_adopt(const std::uint8_t* base,
                                           std::size_t size) {
  if (size < kHeaderSize) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "binary trace shorter than its header (" +
                              std::to_string(size) + " bytes)");
  }
  if (std::memcmp(base, kMagic.data(), kMagic.size()) != 0) {
    throw CheckpointError(CheckpointErrorKind::kBadMagic,
                          "not a binary trace file");
  }
  const auto version = static_cast<std::uint32_t>(get_le(base + 4, 4));
  if (version != BinaryTraceWriter::kVersion) {
    throw CheckpointError(
        CheckpointErrorKind::kBadVersion,
        "binary trace version " + std::to_string(version) + ", expected " +
            std::to_string(BinaryTraceWriter::kVersion));
  }
  const auto header_crc =
      static_cast<std::uint32_t>(get_le(base + kHeaderCrcOffset, 4));
  if (header_crc !=
      crc32(std::span<const std::uint8_t>(base, kHeaderCrcOffset))) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "binary trace header CRC mismatch");
  }
  const auto flags = static_cast<std::uint32_t>(get_le(base + 8, 4));
  const std::uint64_t paths = get_le(base + 16, 8);
  const std::uint64_t snapshots = get_le(base + 24, 8);
  const std::uint64_t payload = get_le(base + 32, 8);
  if (paths == 0) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "binary trace with zero paths");
  }
  // Overflow-checked size arithmetic: a lying header must not wrap and
  // pass the length comparison below.
  const std::uint64_t max_values =
      std::numeric_limits<std::uint64_t>::max() / sizeof(double);
  if (snapshots > max_values / paths) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "binary trace dimensions overflow");
  }
  if (payload != paths * snapshots * sizeof(double)) {
    throw CheckpointError(
        CheckpointErrorKind::kCorrupt,
        "payload size " + std::to_string(payload) + " inconsistent with " +
            std::to_string(paths) + " paths x " + std::to_string(snapshots) +
            " snapshots");
  }
  if (size - kHeaderSize < payload) {
    throw CheckpointError(
        CheckpointErrorKind::kTruncated,
        "payload is " + std::to_string(size - kHeaderSize) +
            " bytes, header promises " + std::to_string(payload));
  }
  if (size - kHeaderSize > payload) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "trailing bytes after the promised payload");
  }
  const auto payload_crc = static_cast<std::uint32_t>(get_le(base + 40, 4));
  const std::span<const std::uint8_t> body(base + kHeaderSize,
                                           static_cast<std::size_t>(payload));
  if (payload_crc != crc32(body)) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "binary trace payload CRC mismatch");
  }

  paths_ = static_cast<std::size_t>(paths);
  snapshots_ = static_cast<std::size_t>(snapshots);
  log_transformed_ =
      (flags & BinaryTraceWriter::kFlagLogTransformed) != 0;
  const std::uint8_t* body_bytes = base + kHeaderSize;
  const bool aligned =
      reinterpret_cast<std::uintptr_t>(body_bytes) % alignof(double) == 0;
  if (std::endian::native == std::endian::little && aligned) {
    data_ = reinterpret_cast<const double*>(body_bytes);
  } else {
    // Misaligned or big-endian: one copy into owned, aligned storage.
    aligned_.resize(paths_ * snapshots_);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(aligned_.data(), body_bytes, aligned_.size() * 8);
    } else {
      for (std::size_t i = 0; i < aligned_.size(); ++i) {
        aligned_[i] = std::bit_cast<double>(get_le(body_bytes + i * 8, 8));
      }
    }
    data_ = aligned_.data();
  }
}

BinaryTraceReader BinaryTraceReader::open(const std::string& file) {
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd < 0) throw_io("cannot open binary trace", file);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_io("cannot stat binary trace", file);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  BinaryTraceReader reader;
  if (size > 0) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      reader.map_base_ = base;
      reader.map_size_ = size;
    }
  }
  if (reader.map_base_ == nullptr) {
    // Zero-length file or a filesystem without mmap: buffered fallback.
    reader.owned_.resize(size);
    std::size_t got = 0;
    while (got < size) {
      const ::ssize_t n = ::read(fd, reader.owned_.data() + got, size - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (got != size) {
      ::close(fd);
      throw_io("short read from binary trace", file);
    }
  }
  ::close(fd);  // the mapping (or the owned copy) outlives the descriptor
  const std::uint8_t* base = reader.map_base_ != nullptr
                                 ? static_cast<const std::uint8_t*>(
                                       reader.map_base_)
                                 : reader.owned_.data();
  reader.validate_and_adopt(base, size);  // throws -> reader unmaps itself
  return reader;
}

BinaryTraceReader BinaryTraceReader::from_bytes(
    std::vector<std::uint8_t> bytes) {
  BinaryTraceReader reader;
  reader.owned_ = std::move(bytes);
  reader.validate_and_adopt(reader.owned_.data(), reader.owned_.size());
  return reader;
}

void BinaryTraceReader::release() noexcept {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_size_);
    map_base_ = nullptr;
    map_size_ = 0;
  }
}

BinaryTraceReader::~BinaryTraceReader() { release(); }

BinaryTraceReader::BinaryTraceReader(BinaryTraceReader&& other) noexcept
    : paths_(other.paths_),
      snapshots_(other.snapshots_),
      log_transformed_(other.log_transformed_),
      data_(other.data_),
      owned_(std::move(other.owned_)),
      aligned_(std::move(other.aligned_)),
      map_base_(std::exchange(other.map_base_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)) {
  other.data_ = nullptr;
}

BinaryTraceReader& BinaryTraceReader::operator=(
    BinaryTraceReader&& other) noexcept {
  if (this != &other) {
    release();
    paths_ = other.paths_;
    snapshots_ = other.snapshots_;
    log_transformed_ = other.log_transformed_;
    data_ = std::exchange(other.data_, nullptr);
    owned_ = std::move(other.owned_);
    aligned_ = std::move(other.aligned_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
  }
  return *this;
}

std::span<const double> BinaryTraceReader::rows(std::size_t first,
                                                std::size_t count) const {
  if (first > snapshots_ || count > snapshots_ - first) {
    throw std::out_of_range("binary trace rows [" + std::to_string(first) +
                            ", " + std::to_string(first + count) +
                            ") out of " + std::to_string(snapshots_));
  }
  return {data_ + first * paths_, count * paths_};
}

bool is_binary_trace(const std::string& file) {
  std::ifstream is(file, std::ios::binary);
  std::array<char, 4> head{};
  is.read(head.data(), head.size());
  return is.gcount() == 4 &&
         std::memcmp(head.data(), kMagic.data(), 4) == 0;
}

}  // namespace losstomo::io
