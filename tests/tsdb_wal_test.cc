// WAL framing and replay: round trips, fsync policies, torn-tail recovery,
// and the same every-offset truncation + bit-flip harness the series codec
// gets (tsdb_corruption_test.cc). The invariant under test: replay either
// delivers an exact prefix of what was appended (truncating a torn tail) or
// fails `kCorruption` -- it never delivers a record that was not written.
// Runs under ASan/TSan/UBSan in CI (scripts/ci.sh).

#include "tsdb/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tsdb/fault_injection.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace ppm::tsdb {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("PPM_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

uint32_t BitForOffset(uint64_t seed, uint64_t offset) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (offset + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return static_cast<uint32_t>((z ^ (z >> 27)) & 7);
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

/// A varied but deterministic instant: feature sets of different sizes so
/// record lengths differ (exercises offset arithmetic).
FeatureSet InstantFor(uint64_t t) {
  FeatureSet instant;
  if (t % 3 != 2) instant.Set(static_cast<uint32_t>(t % 5));
  if (t % 2 == 0) instant.Set(static_cast<uint32_t>(7 + t % 11));
  if (t % 7 == 0) instant.Set(200);
  return instant;
}

std::vector<FeatureSet> Collect(const std::string& path, uint64_t start_seq,
                                Result<WalReplayInfo>* info_out) {
  std::vector<FeatureSet> delivered;
  *info_out = ReplayWal(path, start_seq,
                        [&](uint64_t, const FeatureSet& instant) {
                          delivered.push_back(instant);
                          return Status::OK();
                        });
  return delivered;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/wal_test.ppmwal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `count` instants into a fresh WAL and returns them.
  std::vector<FeatureSet> WriteWal(uint64_t count,
                                   WalFsync fsync = WalFsync::kNever) {
    auto writer = WalWriter::Create(path_, fsync);
    EXPECT_TRUE(writer.ok()) << writer.status();
    std::vector<FeatureSet> written;
    for (uint64_t t = 0; t < count; ++t) {
      written.push_back(InstantFor(t));
      EXPECT_TRUE((*writer)->Append(written.back()).ok());
    }
    EXPECT_TRUE((*writer)->Sync().ok());
    return written;
  }

  std::string path_;
};

TEST_F(WalTest, RoundTrip) {
  const std::vector<FeatureSet> written = WriteWal(25);
  Result<WalReplayInfo> info = Status::Internal("unset");
  const std::vector<FeatureSet> delivered = Collect(path_, 0, &info);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(delivered, written);
  EXPECT_EQ(info->records_delivered, 25u);
  EXPECT_EQ(info->records_skipped, 0u);
  EXPECT_EQ(info->next_seq, 25u);
  EXPECT_FALSE(info->torn_tail);
  EXPECT_EQ(info->dropped_bytes, 0u);
}

// Byte-identity pin: a 3-record WAL as size + CRC-32C of the file.
TEST_F(WalTest, GoldenBytesArePinned) {
  WriteWal(3);
  const std::string bytes = FileBytes(path_);
  EXPECT_EQ(bytes.size(), 77u);
  EXPECT_EQ(crc32c::Value(bytes), 0x4b9e68efu);
}

TEST_F(WalTest, StartSeqSkipsCheckpointCoveredRecords) {
  const std::vector<FeatureSet> written = WriteWal(20);
  Result<WalReplayInfo> info = Status::Internal("unset");
  const std::vector<FeatureSet> delivered = Collect(path_, 12, &info);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_skipped, 12u);
  EXPECT_EQ(info->records_delivered, 8u);
  const std::vector<FeatureSet> tail(written.begin() + 12, written.end());
  EXPECT_EQ(delivered, tail);
}

TEST_F(WalTest, MissingFileIsNotFound) {
  Result<WalReplayInfo> info = Status::Internal("unset");
  Collect(path_ + ".nope", 0, &info);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

TEST_F(WalTest, FsyncAlwaysSyncsEveryAppend) {
  obs::MetricsRegistry::Global().Reset();
  WriteWal(5, WalFsync::kAlways);
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t* fsyncs = snapshot.FindCounter("ppm.wal.fsyncs");
  ASSERT_NE(fsyncs, nullptr);
  // One per append, one for file creation, one for the final Sync().
  EXPECT_GE(*fsyncs, 7u);
  const uint64_t* appends = snapshot.FindCounter("ppm.wal.appends");
  ASSERT_NE(appends, nullptr);
  EXPECT_EQ(*appends, 5u);
}

TEST_F(WalTest, AppendBatchWritesTheBytesOfSingleAppends) {
  const std::vector<FeatureSet> written = WriteWal(25);
  const std::string single = FileBytes(path_);
  std::remove(path_.c_str());
  {
    auto writer = WalWriter::Create(path_, WalFsync::kNever);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->AppendBatch({written.data(), 10}).ok());
    ASSERT_TRUE((*writer)->AppendBatch({written.data() + 10, 15}).ok());
    EXPECT_EQ((*writer)->next_seq(), 25u);
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  EXPECT_EQ(FileBytes(path_), single);
}

TEST_F(WalTest, AppendBatchSyncsOncePerCall) {
  obs::MetricsRegistry::Global().Reset();
  std::vector<FeatureSet> batch;
  for (uint64_t t = 0; t < 5; ++t) batch.push_back(InstantFor(t));
  auto writer = WalWriter::Create(path_, WalFsync::kAlways);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  // One for file creation, one for the whole batch.
  EXPECT_EQ(*snapshot.FindCounter("ppm.wal.fsyncs"), 2u);
  EXPECT_EQ(*snapshot.FindCounter("ppm.wal.appends"), 5u);
}

TEST_F(WalTest, AppendBatchValidatesBeforeWriting) {
  std::vector<FeatureSet> batch(2);
  batch[0].Set(1);
  batch[1].Set(kMaxWalFeatureId + 1);
  auto writer = WalWriter::Create(path_, WalFsync::kNever);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ((*writer)->AppendBatch(batch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*writer)->next_seq(), 0u);
  EXPECT_EQ(FileBytes(path_).size(), sizeof(kWalMagic));
}

// The crash seam counts records, not batches: a kill at the 3rd record of
// a 5-record batch leaves 2 whole records and a torn third.
TEST_F(WalTest, CrashSeamCountsRecordsInsideABatch) {
  std::vector<FeatureSet> batch;
  for (uint64_t t = 0; t < 5; ++t) batch.push_back(InstantFor(t));
  EXPECT_EXIT(
      {
        auto writer = WalWriter::Create(path_, WalFsync::kAlways);
        FaultPlan plan;
        plan.crash_after_wal_appends = 3;
        ScopedFaultInjection inject(plan);
        (void)(*writer)->AppendBatch(batch);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(137), "");
  Result<WalReplayInfo> info = Status::Internal("unset");
  const std::vector<FeatureSet> delivered = Collect(path_, 0, &info);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_TRUE(info->torn_tail);
  EXPECT_EQ(delivered,
            std::vector<FeatureSet>(batch.begin(), batch.begin() + 2));
}

TEST_F(WalTest, FsyncNeverOnlySyncsExplicitly) {
  obs::MetricsRegistry::Global().Reset();
  WriteWal(5, WalFsync::kNever);
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t* fsyncs = snapshot.FindCounter("ppm.wal.fsyncs");
  ASSERT_NE(fsyncs, nullptr);
  // Creation + the final explicit Sync() only.
  EXPECT_EQ(*fsyncs, 2u);
}

TEST_F(WalTest, TruncationAtEveryOffsetYieldsExactPrefix) {
  const std::vector<FeatureSet> written = WriteWal(12);
  const std::string bytes = FileBytes(path_);
  ASSERT_GT(bytes.size(), sizeof(kWalMagic));
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(path_, bytes.substr(0, len));
    Result<WalReplayInfo> info = Status::Internal("unset");
    const std::vector<FeatureSet> delivered = Collect(path_, 0, &info);
    // Truncation only removes a suffix: replay must succeed with a torn
    // tail (or cleanly at a record boundary) and deliver an exact prefix.
    ASSERT_TRUE(info.ok()) << "truncated to " << len << ": " << info.status();
    ASSERT_LE(delivered.size(), written.size());
    for (size_t i = 0; i < delivered.size(); ++i) {
      EXPECT_EQ(delivered[i], written[i]) << "record " << i << " at len "
                                          << len;
    }
    EXPECT_EQ(info->valid_bytes + info->dropped_bytes, len);
    if (len < bytes.size()) {
      EXPECT_EQ(info->torn_tail, info->dropped_bytes != 0);
    }
  }
}

TEST_F(WalTest, BitFlipAtEveryOffsetNeverDeliversWrongData) {
  const uint64_t seed = FaultSeed();
  const std::vector<FeatureSet> written = WriteWal(12);
  const std::string bytes = FileBytes(path_);
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^
        (1u << BitForOffset(seed, offset)));
    WriteBytes(path_, corrupted);
    Result<WalReplayInfo> info = Status::Internal("unset");
    const std::vector<FeatureSet> delivered = Collect(path_, 0, &info);
    if (info.ok()) {
      // Tolerated as a torn tail: everything delivered must still be an
      // exact prefix, and the flipped record itself must have been dropped.
      ASSERT_LT(delivered.size(), written.size())
          << "flip at offset " << offset << " (seed " << seed
          << ") delivered a full replay";
      for (size_t i = 0; i < delivered.size(); ++i) {
        EXPECT_EQ(delivered[i], written[i])
            << "record " << i << ", flip at offset " << offset << " (seed "
            << seed << ")";
      }
    } else {
      EXPECT_EQ(info.status().code(), StatusCode::kCorruption)
          << "flip at offset " << offset << ": " << info.status();
    }
  }
}

TEST_F(WalTest, AppendResumesAfterTornTail) {
  const std::vector<FeatureSet> written = WriteWal(10);
  const std::string bytes = FileBytes(path_);
  // Cut mid-way through the last record.
  WriteBytes(path_, bytes.substr(0, bytes.size() - 3));

  Result<WalReplayInfo> info = Status::Internal("unset");
  std::vector<FeatureSet> delivered = Collect(path_, 0, &info);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->torn_tail);
  ASSERT_EQ(info->next_seq, 9u);

  // Re-open past the torn tail and append two more records.
  auto writer =
      WalWriter::Open(path_, WalFsync::kNever, info->next_seq,
                      info->valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<FeatureSet> expected(written.begin(), written.begin() + 9);
  for (uint64_t t = 9; t < 11; ++t) {
    expected.push_back(InstantFor(t));
    ASSERT_TRUE((*writer)->Append(expected.back()).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());

  delivered = Collect(path_, 0, &info);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->torn_tail);
  EXPECT_EQ(info->next_seq, 11u);
  EXPECT_EQ(delivered, expected);
}

TEST_F(WalTest, OpenRefusesFileShorterThanValidPrefix) {
  WriteWal(4);
  const std::string bytes = FileBytes(path_);
  WriteBytes(path_, bytes.substr(0, sizeof(kWalMagic) + 5));
  auto writer = WalWriter::Open(path_, WalFsync::kNever, 4, bytes.size());
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, SplicedOutRecordIsASequenceGap) {
  WriteWal(5);
  std::string bytes = FileBytes(path_);
  // Walk the frames to find record 1's extent.
  size_t offset = sizeof(kWalMagic);
  const auto frame_len = [&](size_t at) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
    }
    return kWalRecordHeaderBytes + len;
  };
  const size_t record1 = offset + frame_len(offset);
  const size_t record2 = record1 + frame_len(record1);
  bytes.erase(record1, record2 - record1);
  WriteBytes(path_, bytes);

  Result<WalReplayInfo> info = Status::Internal("unset");
  Collect(path_, 0, &info);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption);
  EXPECT_NE(info.status().ToString().find("sequence gap"), std::string::npos)
      << info.status();
}

TEST_F(WalTest, OversizedLengthWithValidHeaderCrcIsCorruption) {
  WriteWal(2);
  std::string bytes = FileBytes(path_);
  // Craft a header claiming an implausible payload but with a *valid*
  // header CRC, appended as the next record: the length cap must reject it
  // rather than attempting a giant read.
  std::string frame;
  const uint32_t len = kMaxWalRecordBytes + 1;
  const uint64_t seq = 2;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<char>((seq >> (8 * i)) & 0xff));
  }
  const uint32_t hcrc = crc32c::Value(frame.data(), 12);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((hcrc >> (8 * i)) & 0xff));
  }
  frame.append(4, '\0');  // Payload CRC (never reached).
  WriteBytes(path_, bytes + frame);

  Result<WalReplayInfo> info = Status::Internal("unset");
  Collect(path_, 0, &info);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, EmptyAndMagicOnlyFilesReplayCleanly) {
  WriteBytes(path_, "");
  Result<WalReplayInfo> info = Status::Internal("unset");
  Collect(path_, 0, &info);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->torn_tail);
  EXPECT_EQ(info->next_seq, 0u);

  WriteBytes(path_, std::string(kWalMagic, sizeof(kWalMagic)));
  Collect(path_, 0, &info);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->torn_tail);
  EXPECT_EQ(info->next_seq, 0u);
}

TEST_F(WalTest, TailLogInfersBaseFromFirstRecord) {
  // A tail log written with CreateAt(first_seq=100) replays with
  // ReplayWalTail: the base is inferred from the first record, so the
  // caller's start_seq (its payload length) delivers exactly the tail.
  auto writer = WalWriter::CreateAt(path_, WalFsync::kNever, 100);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<FeatureSet> written;
  for (uint64_t t = 0; t < 5; ++t) {
    written.push_back(InstantFor(t));
    ASSERT_TRUE((*writer)->Append(written.back()).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());

  std::vector<FeatureSet> delivered;
  std::vector<uint64_t> seqs;
  auto info = ReplayWalTail(path_, 100,
                            [&](uint64_t seq, const FeatureSet& instant) {
                              seqs.push_back(seq);
                              delivered.push_back(instant);
                              return Status::OK();
                            });
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(delivered, written);
  EXPECT_EQ(seqs.front(), 100u);
  EXPECT_EQ(info->records_delivered, 5u);
  EXPECT_EQ(info->records_skipped, 0u);
  EXPECT_EQ(info->next_seq, 105u);
}

TEST_F(WalTest, TailLogSkipsRecordsBelowStartSeq) {
  // start_seq past the base: records already folded into the payload by a
  // compaction are skipped, the rest delivered.
  auto writer = WalWriter::CreateAt(path_, WalFsync::kNever, 10);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<FeatureSet> written;
  for (uint64_t t = 0; t < 6; ++t) {
    written.push_back(InstantFor(t));
    ASSERT_TRUE((*writer)->Append(written.back()).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());

  std::vector<FeatureSet> delivered;
  auto info = ReplayWalTail(path_, 13,
                            [&](uint64_t, const FeatureSet& instant) {
                              delivered.push_back(instant);
                              return Status::OK();
                            });
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_skipped, 3u);
  EXPECT_EQ(info->records_delivered, 3u);
  const std::vector<FeatureSet> tail(written.begin() + 3, written.end());
  EXPECT_EQ(delivered, tail);
  EXPECT_EQ(info->next_seq, 16u);
}

TEST_F(WalTest, EmptyTailLogReportsNextSeqZero) {
  // With no records there is nothing to infer the base from: next_seq is 0
  // and the caller substitutes its snapshot length.
  auto writer = WalWriter::CreateAt(path_, WalFsync::kNever, 42);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  auto info = ReplayWalTail(path_, 42,
                            [](uint64_t, const FeatureSet&) {
                              ADD_FAILURE() << "no records expected";
                              return Status::OK();
                            });
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_delivered, 0u);
  EXPECT_EQ(info->next_seq, 0u);
}

}  // namespace
}  // namespace ppm::tsdb
