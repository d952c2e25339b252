// Binary trace format core: write/read round-trips (bit-exact doubles,
// mmap and in-memory images) and the typed-rejection contract — every way
// a trace can be damaged (any header byte flipped, truncation at every
// prefix, payload bit flips, lying dimension fields, trailing garbage)
// must surface as a CheckpointError of the right kind, never UB, a crash,
// or an attacker-sized allocation.  Mirrors the checkpoint_test idiom.
#include "io/binary_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "test_util.hpp"

namespace losstomo::io {
namespace {

std::string temp_file(const std::string& name) {
  return losstomo::testing::scratch_file(name);
}

std::vector<std::uint8_t> file_bytes(const std::string& file) {
  std::ifstream is(file, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& file,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(file, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// A 3-path x 4-snapshot trace exercising the doubles that byte-level
/// formats get wrong: -0.0, denormals, extreme exponents, and values with
/// no short decimal form.
std::vector<std::vector<double>> sample_rows() {
  return {{0.5, -0.0, 1.0 / 3.0},
          {std::numeric_limits<double>::denorm_min(), 1e-300, 0.1 + 0.2},
          {std::numeric_limits<double>::min(), 0.9999999999999999, 1e300},
          {0.0, 2.5e-9, 7.0 / 11.0}};
}

std::string sample_trace(bool log_transformed = false) {
  const auto file = temp_file(log_transformed ? "sample_log.bin"
                                              : "sample.bin");
  BinaryTraceWriter writer(file, 3, log_transformed);
  for (const auto& row : sample_rows()) writer.append(row);
  writer.finish();
  return file;
}

TEST(BinaryTrace, RoundTripsBitExactly) {
  const auto file = sample_trace();
  const auto reader = BinaryTraceReader::open(file);
  EXPECT_EQ(reader.paths(), 3u);
  EXPECT_EQ(reader.snapshots(), 4u);
  EXPECT_FALSE(reader.log_transformed());
  const auto rows = sample_rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto got = reader.row(i);
    ASSERT_EQ(got.size(), rows[i].size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      // memcmp, not ==: -0.0 == 0.0 would pass a sign-losing format.
      EXPECT_EQ(std::memcmp(&got[j], &rows[i][j], sizeof(double)), 0)
          << "row " << i << " col " << j;
    }
  }
}

TEST(BinaryTrace, BlocksAreContiguousAndZeroCopy) {
  const auto file = sample_trace();
  const auto reader = BinaryTraceReader::open(file);
  const auto all = reader.rows(0, 4);
  EXPECT_EQ(all.size(), 12u);
  // rows() hands out sub-spans of one mapping: adjacent requests tile it.
  EXPECT_EQ(reader.rows(1, 2).data(), all.data() + 3);
  EXPECT_EQ(reader.row(3).data(), all.data() + 9);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(all.data()) % alignof(double),
            0u);
}

TEST(BinaryTrace, FromBytesMatchesMmap) {
  const auto file = sample_trace();
  const auto mapped = BinaryTraceReader::open(file);
  const auto in_memory = BinaryTraceReader::from_bytes(file_bytes(file));
  EXPECT_FALSE(in_memory.mapped());
  ASSERT_EQ(in_memory.snapshots(), mapped.snapshots());
  const auto a = mapped.rows(0, 4);
  const auto b = in_memory.rows(0, 4);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(BinaryTrace, LogTransformedFlagRoundTrips) {
  const auto reader = BinaryTraceReader::open(sample_trace(true));
  EXPECT_TRUE(reader.log_transformed());
}

TEST(BinaryTrace, AppendBlockMatchesPerRowAppends) {
  const auto rows = sample_rows();
  std::vector<double> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  const auto blocked = temp_file("blocked.bin");
  {
    BinaryTraceWriter writer(blocked, 3);
    writer.append_block(flat, rows.size());
    writer.finish();
  }
  EXPECT_EQ(file_bytes(blocked), file_bytes(sample_trace()));
}

TEST(BinaryTrace, WriterRejectsMisuse) {
  const auto file = temp_file("misuse.bin");
  EXPECT_THROW(BinaryTraceWriter(file, 0), std::invalid_argument);
  BinaryTraceWriter writer(file, 3);
  const std::vector<double> wrong{1.0, 2.0};
  EXPECT_THROW(writer.append(wrong), std::invalid_argument);
  EXPECT_THROW(writer.append_block(wrong, 1), std::invalid_argument);
  writer.append(std::vector<double>{0.1, 0.2, 0.3});
  writer.finish();
  writer.finish();  // idempotent
  EXPECT_THROW(writer.append(std::vector<double>{0.1, 0.2, 0.3}),
               std::logic_error);
}

TEST(BinaryTrace, RowsOutOfRangeIsChecked) {
  const auto reader = BinaryTraceReader::open(sample_trace());
  EXPECT_THROW(reader.rows(0, 5), std::out_of_range);
  EXPECT_THROW(reader.rows(4, 1), std::out_of_range);
  // first > snapshots with a count that would wrap naive arithmetic.
  EXPECT_THROW(reader.rows(5, std::numeric_limits<std::size_t>::max()),
               std::out_of_range);
  EXPECT_EQ(reader.rows(4, 0).size(), 0u);  // empty tail slice is fine
}

CheckpointErrorKind kind_of(const std::vector<std::uint8_t>& bytes) {
  try {
    const auto reader = BinaryTraceReader::from_bytes(bytes);
    ADD_FAILURE() << "image of " << bytes.size() << " bytes was accepted";
    return CheckpointErrorKind::kIo;
  } catch (const CheckpointError& e) {
    return e.kind();
  }
}

TEST(BinaryTrace, EveryHeaderByteFlipIsTyped) {
  const auto image = file_bytes(sample_trace());
  ASSERT_GE(image.size(), 64u);
  for (std::size_t byte = 0; byte < 64; ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      auto damaged = image;
      damaged[byte] ^= mask;
      const auto kind = kind_of(damaged);
      if (byte < 4) {
        EXPECT_EQ(kind, CheckpointErrorKind::kBadMagic) << "byte " << byte;
      } else if (byte < 8) {
        EXPECT_EQ(kind, CheckpointErrorKind::kBadVersion) << "byte " << byte;
      } else {
        // Flags, dimensions, CRC fields, and reserved bytes are all
        // covered by the header CRC (or, for the payload-CRC field, by
        // the payload check) — every flip lands on kCorrupt.
        EXPECT_EQ(kind, CheckpointErrorKind::kCorrupt) << "byte " << byte;
      }
    }
  }
}

TEST(BinaryTrace, EveryPayloadBitFlipIsCaught) {
  const auto image = file_bytes(sample_trace());
  for (std::size_t byte = 64; byte < image.size(); ++byte) {
    auto damaged = image;
    damaged[byte] ^= 0x04;
    EXPECT_EQ(kind_of(damaged), CheckpointErrorKind::kCorrupt)
        << "payload byte " << byte - 64;
  }
}

TEST(BinaryTrace, TruncationIsTyped) {
  const auto image = file_bytes(sample_trace());
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    auto prefix = image;
    prefix.resize(keep);
    EXPECT_EQ(kind_of(prefix), CheckpointErrorKind::kTruncated)
        << "prefix of " << keep << " bytes";
  }
}

TEST(BinaryTrace, TrailingGarbageIsCorrupt) {
  auto image = file_bytes(sample_trace());
  image.push_back(0x00);
  EXPECT_EQ(kind_of(image), CheckpointErrorKind::kCorrupt);
}

TEST(BinaryTrace, OversizedDimensionsDoNotAllocate) {
  // A lying header promising ~2^61 values must be rejected by arithmetic,
  // not by an allocation attempt or an overflow wrap.  The header CRC is
  // recomputed so the dimension checks themselves are what reject.
  auto image = file_bytes(sample_trace());
  const auto huge = std::numeric_limits<std::uint64_t>::max() / 2;
  std::memcpy(image.data() + 24, &huge, 8);  // snapshots field
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(image.data(), 60));
  std::memcpy(image.data() + 60, &crc, 4);
  EXPECT_EQ(kind_of(image), CheckpointErrorKind::kCorrupt);
}

TEST(BinaryTrace, ZeroPathsIsCorrupt) {
  auto image = file_bytes(sample_trace());
  const std::uint64_t zero = 0;
  std::memcpy(image.data() + 16, &zero, 8);
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(image.data(), 60));
  std::memcpy(image.data() + 60, &crc, 4);
  EXPECT_EQ(kind_of(image), CheckpointErrorKind::kCorrupt);
}

TEST(BinaryTrace, AbandonedWriterLeavesARejectedFile) {
  const auto file = temp_file("abandoned.bin");
  {
    BinaryTraceWriter writer(file, 3);
    writer.append(std::vector<double>{0.1, 0.2, 0.3});
    // no finish(): simulates a crash mid-write
  }
  EXPECT_FALSE(is_binary_trace(file));  // header is still all zeros
  try {
    const auto reader = BinaryTraceReader::open(file);
    FAIL() << "torn trace was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadMagic);
  }
}

TEST(BinaryTrace, MissingFileIsIoError) {
  try {
    const auto reader =
        BinaryTraceReader::open(temp_file("no_such_trace.bin"));
    FAIL() << "missing file was opened";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }
}

TEST(BinaryTrace, DetectsFormatByMagic) {
  EXPECT_TRUE(is_binary_trace(sample_trace()));
  const auto text = temp_file("not_a_trace.txt");
  write_bytes(text, {'#', ' ', 'l', 'o', 's', 's'});
  EXPECT_FALSE(is_binary_trace(text));
  write_bytes(text, {'L', 'T'});
  EXPECT_FALSE(is_binary_trace(text));  // shorter than the magic
  EXPECT_FALSE(is_binary_trace(temp_file("missing.txt")));
}

TEST(BinaryTrace, IncrementalCrcMatchesOneShot) {
  std::vector<std::uint8_t> bytes(1027);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  Crc32 crc;
  std::size_t at = 0;
  for (const std::size_t chunk : {1u, 63u, 500u, 463u}) {
    crc.update(std::span<const std::uint8_t>(bytes.data() + at, chunk));
    at += chunk;
  }
  ASSERT_EQ(at, bytes.size());
  EXPECT_EQ(crc.value(), crc32(bytes));
}

TEST(BinaryTrace, EmptyTraceRoundTrips) {
  const auto file = temp_file("empty.bin");
  {
    BinaryTraceWriter writer(file, 5);
    writer.finish();
  }
  const auto reader = BinaryTraceReader::open(file);
  EXPECT_EQ(reader.paths(), 5u);
  EXPECT_EQ(reader.snapshots(), 0u);
  EXPECT_EQ(reader.rows(0, 0).size(), 0u);
}

}  // namespace
}  // namespace losstomo::io
