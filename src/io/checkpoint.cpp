#include "io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

namespace losstomo::io {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'L', 'T', 'C', 'P'};
// magic + version + payload size + crc.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t bytes) {
  for (std::size_t b = 0; b < bytes; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

// Appends `v` as consecutive little-endian elements.  A little-endian host
// copies the bytes in one block, so a checkpoint of hundreds of MB costs one
// pass over its arrays; the buffer grows with a quarter of headroom so the
// small fields that follow a large array do not force another full copy.
template <typename T>
void append_le_array(std::vector<std::uint8_t>& out, std::span<const T> v) {
  const std::size_t need = out.size() + sizeof(T) * v.size();
  if (need > out.capacity()) {
    out.reserve(std::max(need + need / 4, 2 * out.capacity()));
  }
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data());
    out.insert(out.end(), bytes, bytes + sizeof(T) * v.size());
  } else {
    for (const T x : v) {
      if constexpr (std::is_floating_point_v<T>) {
        append_le(out, std::bit_cast<std::uint64_t>(x), sizeof(T));
      } else {
        append_le(out, x, sizeof(T));
      }
    }
  }
}

std::uint64_t read_le(const std::uint8_t* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < bytes; ++b) {
    v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  }
  return v;
}

// Reads `v.size()` consecutive little-endian elements starting at `p`; the
// caller has bounds-checked them.
template <typename T>
void read_le_array(const std::uint8_t* p, std::span<T> v) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!v.empty()) std::memcpy(v.data(), p, sizeof(T) * v.size());
  } else {
    for (std::size_t i = 0; i < v.size(); ++i, p += sizeof(T)) {
      if constexpr (std::is_floating_point_v<T>) {
        v[i] = std::bit_cast<T>(read_le(p, sizeof(T)));
      } else {
        v[i] = static_cast<T>(read_le(p, sizeof(T)));
      }
    }
  }
}

std::uint32_t tag_value(const char* tag) {
  if (tag == nullptr || std::strlen(tag) != 4) {
    throw std::logic_error("checkpoint section tags must be 4 characters");
  }
  std::uint32_t v = 0;
  for (std::size_t b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(tag[b]))
         << (8 * b);
  }
  return v;
}

std::string tag_name(std::uint32_t v) {
  std::string s(4, '?');
  for (std::size_t b = 0; b < 4; ++b) {
    const char c = static_cast<char>((v >> (8 * b)) & 0xff);
    s[b] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return s;
}

}  // namespace

const char* checkpoint_error_kind_name(CheckpointErrorKind kind) {
  switch (kind) {
    case CheckpointErrorKind::kIo: return "io";
    case CheckpointErrorKind::kBadMagic: return "bad-magic";
    case CheckpointErrorKind::kBadVersion: return "bad-version";
    case CheckpointErrorKind::kTruncated: return "truncated";
    case CheckpointErrorKind::kCorrupt: return "corrupt";
    case CheckpointErrorKind::kMismatch: return "mismatch";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointErrorKind kind,
                                 const std::string& detail)
    : std::runtime_error(std::string("checkpoint ") +
                         checkpoint_error_kind_name(kind) + ": " + detail),
      kind_(kind) {}

namespace {

// Reflected CRC-32 (polynomial 0xedb88320), slice-by-8 tables built on
// first use.  table[0] is the classic byte-at-a-time table; table[k]
// folds a byte sitting k positions ahead, so the hot loop consumes 8
// input bytes per iteration with 8 independent lookups (no loop-carried
// table dependency), which matters at checkpoint/trace payload sizes
// (hundreds of MB checkpointed, whole traces CRC'd at open).  The result
// is identical to the byte-at-a-time loop for every input.
const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  Crc32 crc;
  crc.update(bytes);
  return crc.value();
}

void Crc32::update(std::span<const std::uint8_t> bytes) {
  const auto& t = crc32_tables();
  std::uint32_t crc = state_;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    // Little-endian-free: assemble the two words byte-by-byte (the
    // compiler fuses these into plain loads on LE targets).
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  state_ = crc;
}

// -- CheckpointWriter -------------------------------------------------------

CheckpointWriter::CheckpointWriter() : image_(kHeaderSize) {}

void CheckpointWriter::u8(std::uint8_t v) { image_.push_back(v); }
void CheckpointWriter::u32(std::uint32_t v) { append_le(image_, v, 4); }
void CheckpointWriter::u64(std::uint64_t v) { append_le(image_, v, 8); }
void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void CheckpointWriter::str(const std::string& s) {
  usize(s.size());
  image_.insert(image_.end(), s.begin(), s.end());
}

void CheckpointWriter::doubles(std::span<const double> v) {
  static_assert(sizeof(double) == 8);
  usize(v.size());
  append_le_array(image_, v);
}

void CheckpointWriter::u8s(std::span<const std::uint8_t> v) {
  usize(v.size());
  image_.insert(image_.end(), v.begin(), v.end());
}

void CheckpointWriter::u32s(std::span<const std::uint32_t> v) {
  usize(v.size());
  append_le_array(image_, v);
}

void CheckpointWriter::sizes(std::span<const std::size_t> v) {
  usize(v.size());
  for (const std::size_t x : v) usize(x);
}

void CheckpointWriter::begin_section(const char* tag) {
  u32(tag_value(tag));
  open_sections_.push_back(image_.size());
  u64(0);  // size slot, patched by end_section
}

void CheckpointWriter::end_section() {
  if (open_sections_.empty()) {
    throw std::logic_error("checkpoint end_section without begin_section");
  }
  const std::size_t slot = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t size = image_.size() - (slot + 8);
  for (std::size_t b = 0; b < 8; ++b) {
    image_[slot + b] = static_cast<std::uint8_t>(size >> (8 * b));
  }
}

std::vector<std::uint8_t> CheckpointWriter::finish() {
  if (finished_) {
    throw std::logic_error("checkpoint writer already finished");
  }
  if (!open_sections_.empty()) {
    throw std::logic_error("checkpoint finish with an open section");
  }
  finished_ = true;
  const std::span<const std::uint8_t> payload(image_.data() + kHeaderSize,
                                              image_.size() - kHeaderSize);
  std::vector<std::uint8_t> header(kMagic.begin(), kMagic.end());
  append_le(header, kVersion, 4);
  append_le(header, payload.size(), 8);
  append_le(header, crc32(payload), 4);
  std::copy(header.begin(), header.end(), image_.begin());
  return std::move(image_);
}

void CheckpointWriter::save(const std::string& file) {
  const std::vector<std::uint8_t> bytes = finish();
  std::ofstream os(file, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "cannot open '" + file + "' for writing");
  }
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "short write to '" + file + "'");
  }
}

// -- CheckpointReader -------------------------------------------------------

CheckpointReader CheckpointReader::from_file(const std::string& file) {
  std::ifstream is(file, std::ios::binary);
  if (!is) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "cannot open '" + file + "'");
  }
  std::vector<std::uint8_t> bytes;
  is.seekg(0, std::ios::end);
  const std::streamoff size = is.tellg();
  if (size < 0) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "cannot size '" + file + "'");
  }
  bytes.resize(static_cast<std::size_t>(size));
  is.seekg(0, std::ios::beg);
  if (size > 0) {
    is.read(reinterpret_cast<char*>(bytes.data()), size);
  }
  if (is.bad() || is.gcount() != size) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "short read from '" + file + "'");
  }
  return CheckpointReader(std::move(bytes));
}

CheckpointReader CheckpointReader::from_bytes(std::vector<std::uint8_t> bytes) {
  return CheckpointReader(std::move(bytes));
}

CheckpointReader::CheckpointReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  if (bytes_.size() < kHeaderSize) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "file shorter than the header (" +
                              std::to_string(bytes_.size()) + " bytes)");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes_.begin())) {
    throw CheckpointError(CheckpointErrorKind::kBadMagic,
                          "not a checkpoint file");
  }
  const std::uint32_t version =
      static_cast<std::uint32_t>(read_le(bytes_.data() + 4, 4));
  if (version != CheckpointWriter::kVersion) {
    throw CheckpointError(
        CheckpointErrorKind::kBadVersion,
        "format version " + std::to_string(version) + ", expected " +
            std::to_string(CheckpointWriter::kVersion));
  }
  const std::uint64_t payload_size = read_le(bytes_.data() + 8, 8);
  if (payload_size != bytes_.size() - kHeaderSize) {
    const bool shorter = bytes_.size() - kHeaderSize < payload_size;
    throw CheckpointError(
        shorter ? CheckpointErrorKind::kTruncated
                : CheckpointErrorKind::kCorrupt,
        "payload is " + std::to_string(bytes_.size() - kHeaderSize) +
            " bytes, header promises " + std::to_string(payload_size));
  }
  const std::uint32_t crc =
      static_cast<std::uint32_t>(read_le(bytes_.data() + 16, 4));
  const std::uint32_t actual = crc32(
      std::span<const std::uint8_t>(bytes_.data() + kHeaderSize, payload_size));
  if (crc != actual) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt, "CRC mismatch");
  }
  cursor_ = kHeaderSize;
  end_ = bytes_.size();
}

void CheckpointReader::need(std::size_t n) const {
  if (end_ - cursor_ < n) {
    throw CheckpointError(
        CheckpointErrorKind::kCorrupt,
        "field of " + std::to_string(n) + " bytes overruns its bound (" +
            std::to_string(end_ - cursor_) + " left)");
  }
}

std::uint8_t CheckpointReader::u8() {
  need(1);
  return bytes_[cursor_++];
}

std::uint32_t CheckpointReader::u32() {
  need(4);
  const std::uint32_t v =
      static_cast<std::uint32_t>(read_le(bytes_.data() + cursor_, 4));
  cursor_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  need(8);
  const std::uint64_t v = read_le(bytes_.data() + cursor_, 8);
  cursor_ += 8;
  return v;
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t CheckpointReader::usize() {
  const std::uint64_t v = u64();
  if (v > std::numeric_limits<std::size_t>::max()) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "size field overflows std::size_t");
  }
  return static_cast<std::size_t>(v);
}

std::size_t CheckpointReader::length_prefix() {
  // Element counts are validated against the bytes actually present before
  // any allocation, so a corrupted length cannot trigger a huge resize.
  return usize();
}

std::string CheckpointReader::str() {
  const std::size_t n = length_prefix();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_), n);
  cursor_ += n;
  return s;
}

std::vector<double> CheckpointReader::doubles() {
  const std::size_t n = length_prefix();
  if (n > (end_ - cursor_) / 8) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "double array length exceeds remaining bytes");
  }
  std::vector<double> v(n);
  read_le_array(bytes_.data() + cursor_, std::span<double>(v));
  cursor_ += 8 * n;
  return v;
}

std::vector<std::uint8_t> CheckpointReader::u8s() {
  const std::size_t n = length_prefix();
  need(n);
  std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                              bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
  cursor_ += n;
  return v;
}

std::vector<std::uint32_t> CheckpointReader::u32s() {
  const std::size_t n = length_prefix();
  if (n > (end_ - cursor_) / 4) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "u32 array length exceeds remaining bytes");
  }
  std::vector<std::uint32_t> v(n);
  read_le_array(bytes_.data() + cursor_, std::span<std::uint32_t>(v));
  cursor_ += 4 * n;
  return v;
}

std::vector<std::size_t> CheckpointReader::sizes() {
  const std::size_t n = length_prefix();
  if (n > (end_ - cursor_) / 8) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "size array length exceeds remaining bytes");
  }
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = usize();
  return v;
}

void CheckpointReader::expect_section(const char* tag) {
  const std::uint32_t want = tag_value(tag);
  const std::uint32_t got = u32();
  if (got != want) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "expected section '" + tag_name(want) +
                              "', found '" + tag_name(got) + "'");
  }
  const std::uint64_t size = u64();
  if (size > end_ - cursor_) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "section '" + tag_name(want) +
                              "' overruns the payload");
  }
  section_ends_.push_back(end_);
  end_ = cursor_ + static_cast<std::size_t>(size);
}

void CheckpointReader::end_section() {
  if (section_ends_.empty()) {
    throw std::logic_error("checkpoint end_section without expect_section");
  }
  cursor_ = end_;  // skip any unread remainder of the section
  end_ = section_ends_.back();
  section_ends_.pop_back();
}

}  // namespace losstomo::io
