// Versioned, CRC-guarded binary checkpoints for long-running monitors.
//
// A deployment that has folded days of snapshots into its sliding-window
// accumulators cannot afford to re-warm from scratch after a process death
// (ROADMAP: checkpoint/restore + warm failover).  The format here is the
// substrate every stateful layer serializes through — stats::Rng streams,
// the streaming accumulators, the sharing-pair store, the incrementally
// maintained normal equations with their cached Cholesky factor, the
// monitor, the simulator, and the scenario runner position — so a restored
// process resumes *bit-identically* mid-run with zero refactorizations.
//
// File layout (all integers little-endian, fixed width):
//
//   magic   "LTCP"            4 bytes
//   version u32               format version (kVersion)
//   size    u64               payload byte count
//   crc     u32               CRC-32 (IEEE 802.3) of the payload
//   payload                   size bytes of tagged sections
//
// The payload is a sequence of sections — u32 tag (four ASCII chars), u64
// byte size, then the section body of primitive fields — written by
// CheckpointWriter and consumed by CheckpointReader.  Readers load the
// whole file into memory and validate the header and CRC *before* any
// field is parsed, then bounds-check every individual read, so a
// truncated, bit-flipped, or version-mismatched checkpoint is rejected
// with a typed CheckpointError — never undefined behaviour, a crash, or a
// partially applied restore.  Components keep the no-partial-state
// guarantee by parsing into temporaries and committing with non-throwing
// moves; ScenarioRunner::restore_checkpoint additionally rebuilds its
// engines into fresh objects so a failed restore leaves the runner
// untouched.
//
// Versioning policy: kVersion bumps on any layout change; there is no
// cross-version migration (a checkpoint is a warm-failover artifact, not
// an archival format), so a reader rejects every version but its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace losstomo::io {

/// What a checkpoint read rejected.  Every failure mode of a corrupt or
/// foreign file maps to exactly one kind; consumers (the CLI drill, the CI
/// smokes) match on it.
enum class CheckpointErrorKind {
  kIo,          // file missing / unreadable / unwritable
  kBadMagic,    // not a checkpoint file at all
  kBadVersion,  // a checkpoint, but from a different format version
  kTruncated,   // shorter than its header promises
  kCorrupt,     // CRC mismatch, or structurally inconsistent fields
  kMismatch,    // valid file, wrong target (different config/spec/shape)
};

const char* checkpoint_error_kind_name(CheckpointErrorKind kind);

/// Typed checkpoint failure.  what() carries the kind name plus detail.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& detail);
  [[nodiscard]] CheckpointErrorKind kind() const { return kind_; }

 private:
  CheckpointErrorKind kind_;
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xffffffff) of a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Incremental CRC-32 over a byte stream (same polynomial/value as crc32):
/// lets a streaming writer (io::BinaryTraceWriter) checksum gigabytes of
/// appended rows without ever holding the payload in memory.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> bytes);
  /// CRC of everything updated so far; the accumulator stays usable.
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// Builds a checkpoint payload field by field.  All write methods append
/// to an in-memory buffer; finish() seals the header + CRC and returns the
/// complete file image (the writer is then spent).  Sections must be
/// balanced (every begin_section has an end_section) and may nest.
class CheckpointWriter {
 public:
  CheckpointWriter();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // bit-exact (round-trips NaN payloads and -0.0)
  void boolean(bool v) { u8(v ? 1 : 0); }
  void usize(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);
  void doubles(std::span<const double> v);
  void u8s(std::span<const std::uint8_t> v);
  void u32s(std::span<const std::uint32_t> v);
  void sizes(std::span<const std::size_t> v);

  /// Opens a tagged section; `tag` must be exactly four ASCII characters.
  void begin_section(const char* tag);
  void end_section();

  /// Seals header + CRC and returns the full file bytes.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// finish() + write to `file`; throws CheckpointError(kIo) on failure.
  void save(const std::string& file);

  static constexpr std::uint32_t kVersion = 7;

 private:
  // The file image: a header slot, sealed in place by finish(), then the
  // payload.
  std::vector<std::uint8_t> image_;
  std::vector<std::size_t> open_sections_;  // offsets of pending size slots
  bool finished_ = false;
};

/// Parses a checkpoint image.  Construction validates magic, version,
/// length, and CRC; every subsequent read is bounds-checked against the
/// payload (and against the innermost open section), so no input can read
/// out of bounds or trigger an attacker-sized allocation.
class CheckpointReader {
 public:
  /// Reads and validates `file` whole.  Throws CheckpointError (kIo,
  /// kBadMagic, kBadVersion, kTruncated, or kCorrupt).
  static CheckpointReader from_file(const std::string& file);
  /// Validates an in-memory image (same checks, same errors).
  static CheckpointReader from_bytes(std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::size_t usize();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> doubles();
  [[nodiscard]] std::vector<std::uint8_t> u8s();
  [[nodiscard]] std::vector<std::uint32_t> u32s();
  [[nodiscard]] std::vector<std::size_t> sizes();

  /// Enters the next section, which must carry `tag` (kCorrupt otherwise).
  void expect_section(const char* tag);
  /// Leaves the innermost section, skipping any unread remainder.
  void end_section();

  /// Bytes not yet consumed (diagnostics).
  [[nodiscard]] std::size_t remaining() const { return end_ - cursor_; }

 private:
  explicit CheckpointReader(std::vector<std::uint8_t> bytes);
  void need(std::size_t n) const;  // kTruncated/kCorrupt on short reads
  [[nodiscard]] std::size_t length_prefix();

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;  // next unread payload byte
  std::size_t end_ = 0;     // payload end (innermost section bound)
  std::vector<std::size_t> section_ends_;
};

}  // namespace losstomo::io
