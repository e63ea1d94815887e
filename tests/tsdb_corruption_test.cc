// Corruption harness: every readable byte of every binary format version is
// truncated and bit-flipped, and the readers must fail cleanly -- no crash,
// no hang, no sanitizer report. v3's checksummed blocks must additionally
// *detect* every single-bit flip (CRC32C guarantees it). Runs under ASan and
// UBSan in CI (scripts/ci.sh).
//
// The bit chosen per offset is seed-driven; set PPM_FAULT_SEED to reproduce
// a CI failure locally or to widen coverage across runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tsdb/binary_format.h"
#include "tsdb/series_codec.h"
#include "tsdb/series_source.h"
#include "tsdb/time_series.h"
#include "util/bytes.h"
#include "util/crc32c.h"

namespace ppm::tsdb {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("PPM_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

/// SplitMix64-style mix used to pick the bit to flip at each offset.
uint32_t BitForOffset(uint64_t seed, uint64_t offset) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (offset + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return static_cast<uint32_t>((z ^ (z >> 27)) & 7);
}

TimeSeries SmallSeries() {
  TimeSeries series;
  const FeatureId a = series.symbols().Intern("alpha");
  const FeatureId b = series.symbols().Intern("beta");
  const FeatureId c = series.symbols().Intern("gamma");
  for (int t = 0; t < 12; ++t) {
    FeatureSet instant;
    if (t % 3 == 0) instant.Set(a);
    if (t % 3 == 1) instant.Set(b);
    if (t % 2 == 0) instant.Set(c);
    series.Append(std::move(instant));
  }
  return series;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CorruptionTest : public ::testing::TestWithParam<BinaryFormatVersion> {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/corruption_" +
            std::to_string(static_cast<int>(GetParam())) + ".ppmts";
    ASSERT_TRUE(WriteBinarySeries(SmallSeries(), path_, GetParam()).ok());
    bytes_ = FileBytes(path_);
    ASSERT_GT(bytes_.size(), 16u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::string bytes_;
};

TEST_P(CorruptionTest, TruncationAtEveryOffsetFailsCleanly) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    WriteBytes(path_, bytes_.substr(0, len));
    const auto series = ReadBinarySeries(path_);
    EXPECT_FALSE(series.ok()) << "version " << static_cast<int>(GetParam())
                              << " accepted a file truncated to " << len
                              << " of " << bytes_.size() << " bytes";
    // The streaming reader must fail cleanly too: either at Open or, for
    // pre-v3 formats, before a scan delivers the advertised instant count.
    auto source = FileSeriesSource::Open(path_);
    if (source.ok()) {
      uint64_t drained = 0;
      FeatureSet instant;
      if ((*source)->StartScan().ok()) {
        while ((*source)->Next(&instant)) ++drained;
      }
      EXPECT_FALSE((*source)->status().ok() &&
                   drained == (*source)->length())
          << "truncated file at " << len << " bytes scanned cleanly";
    }
  }
}

TEST_P(CorruptionTest, BitFlipAtEveryOffsetNeverCrashes) {
  const uint64_t seed = FaultSeed();
  for (size_t offset = 0; offset < bytes_.size(); ++offset) {
    std::string corrupted = bytes_;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^
        (1u << BitForOffset(seed, offset)));
    WriteBytes(path_, corrupted);

    // Reading may succeed (pre-v3 flips in payload bytes can decode to a
    // different valid series) but must never crash, hang, or trip a
    // sanitizer.
    const auto series = ReadBinarySeries(path_);
    if (GetParam() == BinaryFormatVersion::kV3) {
      EXPECT_FALSE(series.ok())
          << "v3 failed to detect a flip of bit "
          << BitForOffset(seed, offset) << " at offset " << offset
          << " (seed " << seed << ")";
    }

    auto source = FileSeriesSource::Open(path_);
    std::vector<FeatureSet> scanned;
    if (GetParam() == BinaryFormatVersion::kV3) {
      EXPECT_FALSE(source.ok())
          << "v3 source failed to detect a flip at offset " << offset;
    } else if (source.ok()) {
      FeatureSet instant;
      if ((*source)->StartScan().ok()) {
        while ((*source)->Next(&instant)) scanned.push_back(instant);
      }
    }

    // The batch reader and the streaming source accept exactly the same
    // files, and when both accept one they see the same series.
    const bool source_clean = source.ok() && (*source)->status().ok() &&
                              scanned.size() == (*source)->length();
    EXPECT_EQ(series.ok(), source_clean) << "readers disagree at offset "
                                         << offset;
    if (series.ok() && source_clean) {
      EXPECT_EQ((*source)->symbols().names(), series->symbols().names())
          << "offset " << offset;
      ASSERT_EQ(scanned.size(), series->length()) << "offset " << offset;
      for (uint64_t t = 0; t < series->length(); ++t) {
        EXPECT_EQ(scanned[t], series->at(t))
            << "instant " << t << ", offset " << offset;
      }
    }
  }
}

/// A file whose symbol table names `a` twice, in `version`'s layout (v3 with
/// valid CRCs, so only the symbol table is wrong). Two instants, {0} and {}.
std::string DuplicateSymbolFile(BinaryFormatVersion version) {
  std::string header;
  bytes::PutU32(&header, 2);
  bytes::PutString(&header, "a");
  bytes::PutString(&header, "a");
  bytes::PutU64(&header, 2);
  std::string instants;
  if (version == BinaryFormatVersion::kV1) {
    bytes::PutU32(&instants, 1);
    bytes::PutU32(&instants, 0);
    bytes::PutU32(&instants, 0);
  } else {
    bytes::PutVarint32(&instants, 1);
    bytes::PutVarint32(&instants, 0);
    bytes::PutVarint32(&instants, 0);
  }
  switch (version) {
    case BinaryFormatVersion::kV1:
      return std::string(internal::kMagic, 8) + header + instants;
    case BinaryFormatVersion::kV2:
      return std::string(internal::kMagicV2, 8) + header + instants;
    case BinaryFormatVersion::kV3:
      break;
  }
  std::string file(internal::kMagicV3, 8);
  bytes::PutU32(&file, static_cast<uint32_t>(header.size()));
  bytes::PutU32(&file, crc32c::Value(header));
  file += header;
  bytes::PutU64(&file, instants.size());
  bytes::PutU32(&file, crc32c::Value(instants));
  return file + instants;
}

TEST_P(CorruptionTest, DuplicateSymbolIsCorruptionForBothReaders) {
  WriteBytes(path_, DuplicateSymbolFile(GetParam()));
  const auto series = ReadBinarySeries(path_);
  EXPECT_EQ(series.status().code(), StatusCode::kCorruption);
  const auto source = FileSeriesSource::Open(path_);
  EXPECT_EQ(source.status().code(), StatusCode::kCorruption);
}

TEST_P(CorruptionTest, IntactFileStillRoundTrips) {
  const auto series = ReadBinarySeries(path_);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(series->length(), 12u);
  EXPECT_EQ(series->symbols().size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, CorruptionTest,
                         ::testing::Values(BinaryFormatVersion::kV1,
                                           BinaryFormatVersion::kV2,
                                           BinaryFormatVersion::kV3));

}  // namespace
}  // namespace ppm::tsdb
