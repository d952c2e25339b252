// Checkpoint format core: primitive round-trips, section framing, and the
// typed-rejection contract — every way a file can be damaged (truncation,
// bit flips, wrong magic/version, lying length prefixes) must surface as a
// CheckpointError of the right kind, never UB or a partial parse.
#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace losstomo::io {
namespace {

std::vector<std::uint8_t> sample_image() {
  CheckpointWriter writer;
  writer.begin_section("TEST");
  writer.u8(7);
  writer.u32(0xdeadbeefu);
  writer.u64(0x0123456789abcdefull);
  writer.f64(-0.0);
  writer.boolean(true);
  writer.usize(42);
  writer.str("hello checkpoint");
  writer.doubles(std::vector<double>{1.5, -2.25, 3.125});
  writer.end_section();
  return writer.finish();
}

TEST(Checkpoint, PrimitivesRoundTrip) {
  auto reader = CheckpointReader::from_bytes(sample_image());
  reader.expect_section("TEST");
  EXPECT_EQ(reader.u8(), 7u);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
  const double neg_zero = reader.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(reader.boolean());
  EXPECT_EQ(reader.usize(), 42u);
  EXPECT_EQ(reader.str(), "hello checkpoint");
  EXPECT_EQ(reader.doubles(), (std::vector<double>{1.5, -2.25, 3.125}));
  reader.end_section();
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Checkpoint, BulkArraysMatchElementWrites) {
  // doubles()/u32s() copy whole blocks; the image must equal the one the
  // element-by-element primitives write, so the format does not depend on
  // how an array is written.  The large array takes the buffer-growth path
  // and the fields after it land in the headroom.
  std::vector<double> big(100000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = std::ldexp(static_cast<double>(i) - 0.25,
                        static_cast<int>(i % 61) - 30);
  }
  big[7] = -0.0;
  big[8] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::uint32_t> ids = {0u, 1u, 0xdeadbeefu, 0xffffffffu};

  CheckpointWriter bulk;
  bulk.begin_section("TEST");
  bulk.u32s(ids);
  bulk.doubles(big);
  bulk.u8(3);
  bulk.doubles(std::vector<double>{});
  bulk.end_section();

  CheckpointWriter elements;
  elements.begin_section("TEST");
  elements.usize(ids.size());
  for (const std::uint32_t x : ids) elements.u32(x);
  elements.usize(big.size());
  for (const double x : big) elements.f64(x);
  elements.u8(3);
  elements.usize(0);
  elements.end_section();

  const auto image = bulk.finish();
  ASSERT_EQ(image, elements.finish());

  auto reader = CheckpointReader::from_bytes(image);
  reader.expect_section("TEST");
  EXPECT_EQ(reader.u32s(), ids);
  const auto back = reader.doubles();
  ASSERT_EQ(back.size(), big.size());
  EXPECT_EQ(
      std::memcmp(back.data(), big.data(), big.size() * sizeof(double)), 0);
  EXPECT_EQ(reader.u8(), 3u);
  EXPECT_TRUE(reader.doubles().empty());
  reader.end_section();
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Checkpoint, NanRoundTripsBitExactly) {
  CheckpointWriter writer;
  writer.f64(std::numeric_limits<double>::quiet_NaN());
  writer.f64(std::numeric_limits<double>::infinity());
  auto reader = CheckpointReader::from_bytes(writer.finish());
  EXPECT_TRUE(std::isnan(reader.f64()));
  EXPECT_TRUE(std::isinf(reader.f64()));
}

TEST(Checkpoint, TypedArraysRoundTrip) {
  CheckpointWriter writer;
  const std::vector<std::uint8_t> u8s{0, 1, 255};
  const std::vector<std::uint32_t> u32s{0, 77, 0xffffffffu};
  const std::vector<std::size_t> sizes{9, 0, 123456789};
  writer.u8s(u8s);
  writer.u32s(u32s);
  writer.sizes(sizes);
  auto reader = CheckpointReader::from_bytes(writer.finish());
  EXPECT_EQ(reader.u8s(), u8s);
  EXPECT_EQ(reader.u32s(), u32s);
  EXPECT_EQ(reader.sizes(), sizes);
}

TEST(Checkpoint, SectionsSkipUnreadRemainder) {
  CheckpointWriter writer;
  writer.begin_section("AAAA");
  writer.u64(1);
  writer.u64(2);
  writer.u64(3);
  writer.end_section();
  writer.begin_section("BBBB");
  writer.u8(9);
  writer.end_section();
  auto reader = CheckpointReader::from_bytes(writer.finish());
  reader.expect_section("AAAA");
  EXPECT_EQ(reader.u64(), 1u);  // leave 2 and 3 unread
  reader.end_section();
  reader.expect_section("BBBB");
  EXPECT_EQ(reader.u8(), 9u);
  reader.end_section();
}

TEST(Checkpoint, WrongSectionTagIsCorrupt) {
  auto reader = CheckpointReader::from_bytes(sample_image());
  try {
    reader.expect_section("NOPE");
    FAIL() << "accepted a wrong section tag";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
  }
}

TEST(Checkpoint, TruncationIsTyped) {
  const auto image = sample_image();
  // Every proper prefix must be rejected cleanly — never parsed.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{12}, std::size_t{19},
        image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> cut(image.begin(),
                                  image.begin() + static_cast<long>(keep));
    try {
      auto reader = CheckpointReader::from_bytes(std::move(cut));
      FAIL() << "accepted a checkpoint truncated to " << keep << " bytes";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kTruncated)
          << "prefix of " << keep << " bytes";
    }
  }
}

TEST(Checkpoint, EveryPayloadBitFlipIsCaught) {
  const auto image = sample_image();
  constexpr std::size_t kHeader = 20;  // magic + version + size + crc
  for (std::size_t i = kHeader; i < image.size(); ++i) {
    auto damaged = image;
    damaged[i] ^= 0x01;
    try {
      auto reader = CheckpointReader::from_bytes(std::move(damaged));
      FAIL() << "accepted a bit flip at payload byte " << i;
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt) << "byte " << i;
    }
  }
}

TEST(Checkpoint, WrongMagicAndVersionAreTyped) {
  auto bad_magic = sample_image();
  bad_magic[0] = 'X';
  try {
    auto reader = CheckpointReader::from_bytes(std::move(bad_magic));
    FAIL() << "accepted wrong magic";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadMagic);
  }
  auto bad_version = sample_image();
  bad_version[4] ^= 0xff;  // version u32 follows the 4-byte magic
  try {
    auto reader = CheckpointReader::from_bytes(std::move(bad_version));
    FAIL() << "accepted wrong version";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadVersion);
  }
  // An image from the previous format version — a real file a
  // not-yet-upgraded process could leave behind — is refused too: there is
  // no cross-version migration.
  auto old_version = sample_image();
  const std::uint32_t previous = CheckpointWriter::kVersion - 1;
  for (std::size_t b = 0; b < 4; ++b) {
    old_version[4 + b] = static_cast<std::uint8_t>(previous >> (8 * b));
  }
  try {
    auto reader = CheckpointReader::from_bytes(std::move(old_version));
    FAIL() << "accepted format version " << previous;
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadVersion);
  }
}

TEST(Checkpoint, OversizedLengthPrefixDoesNotAllocate) {
  // A length prefix claiming more elements than the payload could hold
  // must be rejected before any allocation sized from it.
  CheckpointWriter writer;
  writer.u64(0x7fffffffffffffffull);  // read back as a doubles() count
  auto reader = CheckpointReader::from_bytes(writer.finish());
  try {
    const auto v = reader.doubles();
    FAIL() << "accepted an attacker-sized length prefix";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
  }
}

TEST(Checkpoint, ReadPastSectionEndIsTyped) {
  CheckpointWriter writer;
  writer.begin_section("TINY");
  writer.u8(1);
  writer.end_section();
  auto reader = CheckpointReader::from_bytes(writer.finish());
  reader.expect_section("TINY");
  EXPECT_EQ(reader.u8(), 1u);
  EXPECT_THROW(reader.u64(), CheckpointError);
}

TEST(Checkpoint, MissingFileIsIoError) {
  try {
    auto reader =
        CheckpointReader::from_file("/tmp/losstomo_no_such_file.ckpt");
    FAIL() << "opened a missing file";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }
}

TEST(Checkpoint, FileSaveLoadRoundTrip) {
  const std::string file = losstomo::testing::scratch_file("roundtrip.ckpt");
  CheckpointWriter writer;
  writer.begin_section("FILE");
  writer.str("on disk");
  writer.end_section();
  writer.save(file);
  auto reader = CheckpointReader::from_file(file);
  reader.expect_section("FILE");
  EXPECT_EQ(reader.str(), "on disk");
  reader.end_section();
  std::remove(file.c_str());
}

TEST(Checkpoint, ErrorKindNamesAreStable) {
  EXPECT_STREQ(checkpoint_error_kind_name(CheckpointErrorKind::kIo), "io");
  EXPECT_STREQ(checkpoint_error_kind_name(CheckpointErrorKind::kCorrupt),
               "corrupt");
  const CheckpointError e(CheckpointErrorKind::kMismatch, "who are you");
  EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("who are you"), std::string::npos);
}

}  // namespace
}  // namespace losstomo::io
