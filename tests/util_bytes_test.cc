// The shared byte layer's edge cases that the per-format corruption suites
// do not reach: varint length limits, a string length cap hit exactly, the
// truncated-vs-malformed distinction, and the file container's checks.

#include "util/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

namespace ppm::bytes {
namespace {

TEST(VarintTest, FiveByteMaximumRoundTrips) {
  std::string encoded;
  PutVarint32(&encoded, UINT32_MAX);
  ASSERT_EQ(encoded.size(), 5u);
  ByteReader reader(encoded);
  uint32_t value = 0;
  ASSERT_TRUE(reader.ReadVarint32(&value));
  EXPECT_EQ(value, UINT32_MAX);
  EXPECT_TRUE(reader.exhausted());
}

TEST(VarintTest, OverlongEncodingIsMalformedNotTruncated) {
  // Five continuation bytes: a sixth byte would be needed, which no 32-bit
  // value ever takes.
  const std::string overlong = "\x80\x80\x80\x80\x80\x01";
  ByteReader reader(overlong);
  uint32_t value = 0;
  EXPECT_FALSE(reader.ReadVarint32(&value));
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.position(), 0u);  // A failed read consumes nothing.
}

TEST(VarintTest, MissingFinalByteIsTruncated) {
  ByteReader reader(std::string_view("\x80\x80", 2));
  uint32_t value = 0;
  EXPECT_FALSE(reader.ReadVarint32(&value));
  EXPECT_TRUE(reader.truncated());
}

TEST(StringTest, LengthCapIsInclusive) {
  std::string encoded;
  PutString(&encoded, "abcd");
  std::string value;
  ByteReader at_cap(encoded);
  ASSERT_TRUE(at_cap.ReadString(&value, 4));
  EXPECT_EQ(value, "abcd");
  EXPECT_TRUE(at_cap.exhausted());

  ByteReader over_cap(encoded);
  EXPECT_FALSE(over_cap.ReadString(&value, 3));
  EXPECT_FALSE(over_cap.truncated());
  EXPECT_EQ(over_cap.position(), 0u);
}

TEST(StringTest, ShortBodyIsTruncated) {
  std::string encoded;
  PutString(&encoded, "abcd");
  encoded.pop_back();
  std::string value;
  ByteReader reader(encoded);
  EXPECT_FALSE(reader.ReadString(&value));
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.position(), 0u);
}

TEST(FixedTest, LittleEndianLayout) {
  std::string encoded;
  PutU32(&encoded, 0x04030201u);
  PutU64(&encoded, 0x0c0b0a0908070605ull);
  EXPECT_EQ(encoded, std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
                                 "\x0b\x0c"));
  ByteReader reader(encoded);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  EXPECT_EQ(u32, 0x04030201u);
  EXPECT_EQ(u64, 0x0c0b0a0908070605ull);
  uint8_t u8 = 0;
  EXPECT_FALSE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.truncated());
}

TEST(FrameFileTest, RoundTripsAndRejectsEveryFramingFault) {
  const char kMagicTag[] = "TESTMAG\n";
  const std::string file = FrameFile(kMagicTag, "body");
  ASSERT_EQ(file.size(), kFrameFileHeaderBytes + 4);
  auto body = UnframeFile(file, kMagicTag, "t");
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "body");

  EXPECT_EQ(UnframeFile(file, "OTHERMG\n", "t").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UnframeFile(file.substr(0, file.size() - 1), kMagicTag, "t")
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UnframeFile(file + "x", kMagicTag, "t").status().code(),
            StatusCode::kCorruption);
  std::string flipped = file;
  flipped.back() ^= 1;
  EXPECT_EQ(UnframeFile(flipped, kMagicTag, "t").status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace ppm::bytes
