#include "tsdb/series_codec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/crc32c.h"
#include "util/random.h"

namespace ppm::tsdb {
namespace {

class CodecTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/ppm_codec_" + name;
  }

  TimeSeries MakeSampleSeries() {
    TimeSeries series;
    series.AppendNamed({"coffee", "newspaper"});
    series.AppendEmpty();
    series.AppendNamed({"newspaper"});
    series.AppendNamed({"coffee", "tea", "newspaper"});
    return series;
  }

  void ExpectSeriesEqual(const TimeSeries& a, const TimeSeries& b) {
    ASSERT_EQ(a.length(), b.length());
    ASSERT_EQ(a.symbols().size(), b.symbols().size());
    for (uint32_t id = 0; id < a.symbols().size(); ++id) {
      EXPECT_EQ(*a.symbols().Name(id), *b.symbols().Name(id));
    }
    for (uint64_t t = 0; t < a.length(); ++t) {
      EXPECT_EQ(a.at(t), b.at(t)) << "instant " << t;
    }
  }
};

TEST_F(CodecTest, BinaryRoundTrip) {
  const TimeSeries original = MakeSampleSeries();
  const std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteBinarySeries(original, path).ok());
  auto loaded = ReadBinarySeries(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSeriesEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST_F(CodecTest, BinaryRoundTripEmptySeries) {
  TimeSeries empty;
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(WriteBinarySeries(empty, path).ok());
  auto loaded = ReadBinarySeries(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->length(), 0u);
  std::remove(path.c_str());
}

TEST_F(CodecTest, BinaryRoundTripLargeRandom) {
  Rng rng(77);
  TimeSeries series;
  for (int f = 0; f < 20; ++f) {
    series.symbols().Intern("f" + std::to_string(f));
  }
  for (int t = 0; t < 5000; ++t) {
    FeatureSet instant;
    const int k = static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < k; ++i) {
      instant.Set(static_cast<uint32_t>(rng.NextBelow(20)));
    }
    series.Append(std::move(instant));
  }
  const std::string path = TempPath("large.bin");
  ASSERT_TRUE(WriteBinarySeries(series, path).ok());
  auto loaded = ReadBinarySeries(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSeriesEqual(series, *loaded);
  std::remove(path.c_str());
}

TEST_F(CodecTest, ReadMissingFileFails) {
  auto loaded = ReadBinarySeries("/nonexistent/dir/file.bin");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CodecTest, ReadBadMagicFails) {
  const std::string path = TempPath("badmagic.bin");
  std::ofstream(path) << "NOTAPPM_anything";
  auto loaded = ReadBinarySeries(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(CodecTest, ReadTruncatedFails) {
  const TimeSeries original = MakeSampleSeries();
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteBinarySeries(original, path).ok());
  // Chop the tail off.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 5));
  out.close();
  auto loaded = ReadBinarySeries(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Byte-identity pin: the exact encoding of a fixed series in every binary
// version, as size + CRC-32C of the file. A refactor of the codec must keep
// these bytes; a deliberate format change updates the constants.
TEST_F(CodecTest, GoldenBytesArePinned) {
  struct Golden {
    BinaryFormatVersion version;
    size_t size;
    uint32_t crc;
  };
  const Golden goldens[] = {
      {BinaryFormatVersion::kV1, 90, 0x6a33ea95u},
      {BinaryFormatVersion::kV2, 60, 0x15517b1fu},
      {BinaryFormatVersion::kV3, 80, 0xecc76a63u},
  };
  const TimeSeries series = MakeSampleSeries();
  const std::string path = TempPath("golden.bin");
  for (const Golden& golden : goldens) {
    ASSERT_TRUE(WriteBinarySeries(series, path, golden.version).ok());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const int v = static_cast<int>(golden.version);
    EXPECT_EQ(bytes.size(), golden.size) << "v" << v;
    EXPECT_EQ(crc32c::Value(bytes), golden.crc) << "v" << v;
  }
  std::remove(path.c_str());
}

TEST_F(CodecTest, TextRoundTrip) {
  const TimeSeries original = MakeSampleSeries();
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteTextSeries(original, path).ok());
  auto loaded = ReadTextSeries(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Text reload re-interns in first-seen order; compare by names per instant.
  ASSERT_EQ(original.length(), loaded->length());
  for (uint64_t t = 0; t < original.length(); ++t) {
    std::vector<std::string> expected, actual;
    original.at(t).ForEach([&](uint32_t id) {
      expected.push_back(original.symbols().NameOrPlaceholder(id));
    });
    loaded->at(t).ForEach([&](uint32_t id) {
      actual.push_back(loaded->symbols().NameOrPlaceholder(id));
    });
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(expected, actual) << "instant " << t;
  }
  std::remove(path.c_str());
}

TEST_F(CodecTest, TextReaderSkipsComments) {
  const std::string path = TempPath("comments.txt");
  std::ofstream(path) << "# header comment\na b\n\nb\n";
  auto loaded = ReadTextSeries(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->length(), 3u);  // Comment line dropped, empty kept.
  EXPECT_EQ(loaded->at(0).Count(), 2u);
  EXPECT_TRUE(loaded->at(1).Empty());
  std::remove(path.c_str());
}

TEST_F(CodecTest, TextWriterRejectsUnsafeNames) {
  TimeSeries series;
  series.AppendNamed({"has space"});
  // AppendNamed splits nothing -- the name literally contains a space, which
  // the text format cannot represent.
  const std::string path = TempPath("unsafe.txt");
  EXPECT_EQ(WriteTextSeries(series, path).code(), StatusCode::kInvalidArgument);

  TimeSeries hash_series;
  hash_series.AppendNamed({"#tag"});
  EXPECT_EQ(WriteTextSeries(hash_series, path).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppm::tsdb
