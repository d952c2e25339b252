// Versioned, mmap-able binary snapshot traces — line-rate ingestion.
//
// The text snapshot format (trace_io.hpp) tokenizes every double through an
// istream in the monitor's hot loop; at overlay scale (5112 paths) parsing
// dominates the steady tick.  This format stores the same campaign as raw
// little-endian IEEE-754 doubles so a reader can hand out contiguous
// `[tick x path]` blocks with ZERO per-value work — the blocks feed
// straight into the monitor (core::LiaMonitor::observe_block) through the
// ingestion pipeline (io/pipeline.hpp).
//
// File layout (all integers little-endian, fixed width):
//
//   offset  0  magic      "LTBT"                      4 bytes
//           4  version    u32  (kVersion)
//           8  flags      u32  (kFlagLogTransformed)
//          12  reserved   u32  (zero)
//          16  paths      u64  snapshot arity np
//          24  snapshots  u64  row count
//          32  payload    u64  byte count (= paths * snapshots * 8)
//          40  crc        u32  CRC-32 of the payload
//          44  reserved   u32 x 4 (zero)
//          60  header crc u32  CRC-32 of bytes [0, 60)
//          64  payload    row-major doubles, one row per snapshot
//
// The 64-byte header keeps the payload 8-aligned at any mmap base (pages
// are page-aligned), so `rows()` is a reinterpret of the mapping — no copy,
// no parse.  The same magic|version|size|CRC discipline as the "LTCP"
// checkpoint container applies: every header byte is covered by a check
// (magic, version, or the header CRC), the payload CRC is validated at
// open before any value is read, and all failure modes surface as typed
// io::CheckpointError — never UB, a crash, or an attacker-sized
// allocation.
//
// Flags: kFlagLogTransformed marks traces storing Y = log phi (what a
// monitor consumes — scenario record/replay traces); clear means raw path
// transmission rates phi in [0, 1] (what the text format stores, and what
// `lia_cli mode=convert` round-trips bit-identically).
//
// Versioning policy matches the checkpoint container: kVersion bumps on
// any layout change, readers reject every version but their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"

namespace losstomo::io {

/// Streaming binary-trace writer: construct with the snapshot arity,
/// append rows (or whole blocks), then finish() — the header (row count +
/// CRCs) is patched in place, so gigabyte traces stream through O(row)
/// memory.  Throws CheckpointError(kIo) on filesystem failure.  A writer
/// abandoned without finish() leaves a file with an all-zero header that
/// every reader rejects (bad magic) — a torn trace can never parse.
class BinaryTraceWriter {
 public:
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::uint32_t kFlagLogTransformed = 1u << 0;

  /// Opens `file` for writing and reserves the header.
  /// `paths` must be > 0 (throws std::invalid_argument).
  BinaryTraceWriter(const std::string& file, std::size_t paths,
                    bool log_transformed = false);
  ~BinaryTraceWriter();
  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  /// Appends one snapshot row; `row.size()` must equal paths().
  void append(std::span<const double> row);
  /// Appends `rows` consecutive snapshots from a contiguous row-major
  /// block of rows * paths() doubles — ONE write, no per-row overhead.
  void append_block(std::span<const double> values, std::size_t rows);

  /// Seals the header (count + payload/header CRCs) and closes the file.
  /// Idempotent; no further append() is allowed after it.
  void finish();

  [[nodiscard]] std::size_t paths() const { return paths_; }
  [[nodiscard]] std::size_t snapshots() const { return snapshots_; }
  [[nodiscard]] bool log_transformed() const { return log_transformed_; }

 private:
  std::string file_;
  std::size_t paths_;
  bool log_transformed_;
  std::size_t snapshots_ = 0;
  Crc32 payload_crc_;
  int fd_ = -1;
  std::vector<std::uint8_t> buffer_;  // write coalescing
  void flush_buffer();
  void write_all(const std::uint8_t* data, std::size_t n);
  bool finished_ = false;
};

/// Zero-copy binary-trace reader.  Opening validates the ENTIRE failure
/// surface before any value is handed out: header length, magic, version,
/// header CRC, field consistency (paths/snapshots/payload size, overflow-
/// checked), file length, and the payload CRC — each rejection a typed
/// CheckpointError (kIo / kBadMagic / kBadVersion / kTruncated /
/// kCorrupt).  The payload is memory-mapped read-only where the platform
/// allows (falling back to a buffered read), so rows() costs nothing until
/// the pages are touched and the OS drops clean pages under memory
/// pressure instead of swapping.
///
/// Thread-safety: the mapping is immutable after construction — concurrent
/// rows() reads from any number of threads are safe.
class BinaryTraceReader {
 public:
  /// Maps and validates `file`, payload CRC included — one linear pass,
  /// still orders of magnitude cheaper than tokenizing the text form.
  static BinaryTraceReader open(const std::string& file);
  /// Validates an in-memory image (same checks, same typed errors).
  static BinaryTraceReader from_bytes(std::vector<std::uint8_t> bytes);

  ~BinaryTraceReader();
  BinaryTraceReader(BinaryTraceReader&& other) noexcept;
  BinaryTraceReader& operator=(BinaryTraceReader&& other) noexcept;
  BinaryTraceReader(const BinaryTraceReader&) = delete;
  BinaryTraceReader& operator=(const BinaryTraceReader&) = delete;

  [[nodiscard]] std::size_t paths() const { return paths_; }
  [[nodiscard]] std::size_t snapshots() const { return snapshots_; }
  [[nodiscard]] bool log_transformed() const { return log_transformed_; }

  /// Contiguous row-major block of snapshots [first, first + count):
  /// count * paths() doubles, valid for the reader's lifetime, zero-copy.
  /// Preconditions checked: first + count <= snapshots() (throws
  /// std::out_of_range).
  [[nodiscard]] std::span<const double> rows(std::size_t first,
                                             std::size_t count) const;
  /// One snapshot row (rows(i, 1)).
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return rows(i, 1);
  }

  /// True when the payload is an OS memory mapping (diagnostics; false for
  /// from_bytes images and platforms without mmap).
  [[nodiscard]] bool mapped() const { return map_base_ != nullptr; }

 private:
  BinaryTraceReader() = default;
  void validate_and_adopt(const std::uint8_t* base, std::size_t size);
  void release() noexcept;

  std::size_t paths_ = 0;
  std::size_t snapshots_ = 0;
  bool log_transformed_ = false;
  const double* data_ = nullptr;       // payload, 8-aligned
  std::vector<std::uint8_t> owned_;    // from_bytes / fallback storage
  std::vector<double> aligned_;        // used only if payload misaligned
  void* map_base_ = nullptr;           // mmap bookkeeping
  std::size_t map_size_ = 0;
};

/// True if `file` starts with the binary-trace magic (format
/// auto-detection for CLI tools); false for missing/short/other files.
bool is_binary_trace(const std::string& file);

}  // namespace losstomo::io
