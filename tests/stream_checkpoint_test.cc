// Checkpoint/restore for the continuous miner: export/restore determinism,
// the kill-point matrix (crash after every instant, recover, finish, and
// the final snapshot must be byte-identical to an uninterrupted run), the
// every-offset truncation + bit-flip harness over checkpoint files, v1
// checkpoint compatibility, and the last-good-checkpoint guarantee under
// injected fsync failures. The matrix and the corruption harness each run
// over a whole-history and a windowed stream. Runs under ASan/TSan/UBSan
// in CI (scripts/ci.sh).

#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stream/continuous_miner.h"
#include "tsdb/fault_injection.h"
#include "tsdb/wal.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace ppm::stream {
namespace {

namespace fs = std::filesystem;
using tsdb::TimeSeries;

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

TimeSeries MakeSeries(uint64_t length, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series;
  series.symbols().Intern("a");
  series.symbols().Intern("b");
  series.symbols().Intern("c");
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    if (t % 4 == 0 && rng.NextBool(0.9)) instant.Set(0);
    if (t % 4 == 1 && rng.NextBool(0.85)) instant.Set(1);
    if (rng.NextBool(0.2)) instant.Set(2);
    series.Append(std::move(instant));
  }
  return series;
}

MiningOptions DefaultOptions() {
  MiningOptions options;
  options.period = 4;
  options.min_confidence = 0.7;
  return options;
}

/// Field-by-field equality of two exported states: the "byte-identical
/// checkpoint" guarantee without going through the codec.
void ExpectStatesEqual(const ContinuousMinerState& a,
                       const ContinuousMinerState& b) {
  EXPECT_EQ(a.drift_window, b.drift_window);
  EXPECT_EQ(a.window_segments, b.window_segments);
  EXPECT_EQ(a.letters, b.letters);
  EXPECT_EQ(a.seeded_counts, b.seeded_counts);
  EXPECT_EQ(a.other_counts, b.other_counts);
  EXPECT_EQ(a.window_history, b.window_history);
  EXPECT_EQ(a.pending_other, b.pending_other);
  EXPECT_EQ(a.segment_mask, b.segment_mask);
  EXPECT_EQ(a.segment_position, b.segment_position);
  EXPECT_EQ(a.instants_seen, b.instants_seen);
  EXPECT_EQ(a.segments_committed, b.segments_committed);
  EXPECT_EQ(a.window_masks, b.window_masks);
  EXPECT_EQ(a.hits, b.hits);
}

std::unique_ptr<ContinuousMiner> SeededContinuousMiner(
    const TimeSeries& series, uint64_t prefix_len,
    const ContinuousOptions& continuous = {}) {
  TimeSeries prefix;
  prefix.symbols() = series.symbols();
  for (uint64_t t = 0; t < prefix_len; ++t) prefix.Append(series.at(t));
  auto miner =
      ContinuousMiner::SeedFromPrefix(DefaultOptions(), prefix, continuous);
  EXPECT_TRUE(miner.ok()) << miner.status();
  return std::move(*miner);
}

TEST(CheckpointStateTest, ExportRestoreRoundTripAtEveryCutKind) {
  const TimeSeries series = MakeSeries(1000, 5);
  // Cut right after seeding, mid-segment, at a segment boundary, and at a
  // checkpointed-then-grown point.
  for (const uint64_t cut : {200ull, 333ull, 600ull, 999ull}) {
    auto original = SeededContinuousMiner(series, 200, {.drift_window = 6});
    for (uint64_t t = 200; t < cut; ++t) original->Append(series.at(t));

    const ContinuousMinerState state = original->ExportState();
    auto restored = ContinuousMiner::Restore(DefaultOptions(), state);
    ASSERT_TRUE(restored.ok()) << "cut " << cut << ": " << restored.status();
    ExpectStatesEqual((*restored)->ExportState(), state);

    // Both finish the stream; every observable must agree.
    for (uint64_t t = cut; t < series.length(); ++t) {
      original->Append(series.at(t));
      (*restored)->Append(series.at(t));
    }
    ExpectStatesEqual((*restored)->ExportState(), original->ExportState());
    EXPECT_EQ((*restored)->Snapshot().ToString(series.symbols()),
              original->Snapshot().ToString(series.symbols()));
    EXPECT_EQ((*restored)->DriftedLetters(), original->DriftedLetters());
  }
}

TEST(CheckpointStateTest, RestoreRejectsTamperedStates) {
  const TimeSeries series = MakeSeries(500, 9);
  auto miner = SeededContinuousMiner(series, 100, {.drift_window = 4});
  for (uint64_t t = 100; t < 443; ++t) miner->Append(series.at(t));
  const ContinuousMinerState good = miner->ExportState();
  ASSERT_TRUE(ContinuousMiner::Restore(DefaultOptions(), good).ok());

  const auto expect_rejected = [&](ContinuousMinerState state,
                                   const char* what) {
    const auto restored = ContinuousMiner::Restore(DefaultOptions(), state);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption) << what;
  };

  {
    ContinuousMinerState state = good;
    state.seeded_counts[0] = state.segments_committed + 1;
    expect_rejected(std::move(state), "seeded count beyond segments");
  }
  {
    ContinuousMinerState state = good;
    state.instants_seen += 1;
    expect_rejected(std::move(state), "cursor arithmetic mismatch");
  }
  {
    ContinuousMinerState state = good;
    if (!state.hits.empty()) {
      state.hits[0].second = state.segments_committed + 7;
      expect_rejected(std::move(state), "hit count beyond segments");
    }
  }
  {
    ContinuousMinerState state = good;
    state.letters.push_back(Letter{0, 99});  // Not canonically sorted.
    expect_rejected(std::move(state), "non-canonical letters");
  }
  {
    ContinuousMinerState state = good;
    state.window_history.pop_back();  // Window no longer matches counts.
    expect_rejected(std::move(state), "window/horizon mismatch");
  }
}

// Every invariant of the v2 window state must be re-validated on restore:
// a state whose window masks cannot have produced its counts and hits is
// corruption, never a silently different miner.
TEST(CheckpointStateTest, ContinuousRestoreRejectsTamperedWindowStates) {
  const TimeSeries series = MakeSeries(500, 13);
  ContinuousOptions continuous;
  continuous.window_segments = 6;
  continuous.drift_window = 4;
  auto miner = SeededContinuousMiner(series, 100, continuous);
  for (uint64_t t = 100; t < 443; ++t) miner->Append(series.at(t));
  const ContinuousMinerState good = miner->ExportState();
  ASSERT_EQ(good.window_masks.size(), 6u);
  ASSERT_TRUE(ContinuousMiner::Restore(DefaultOptions(), good).ok());

  const auto expect_rejected = [&](ContinuousMinerState state,
                                   const char* what) {
    const auto restored = ContinuousMiner::Restore(DefaultOptions(), state);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption) << what;
  };

  {
    ContinuousMinerState state = good;
    state.window_segments = 0;  // Masks present without a window.
    expect_rejected(std::move(state), "masks without a window");
  }
  {
    ContinuousMinerState state = good;
    state.window_masks.pop_back();  // Fewer masks than the horizon.
    expect_rejected(std::move(state), "window mask count mismatch");
  }
  {
    ContinuousMinerState state = good;
    for (auto& mask : state.window_masks) {
      if (mask.size() >= 2) {
        std::swap(mask.front(), mask.back());  // Unsorted mask.
        expect_rejected(std::move(state), "unsorted window mask");
        break;
      }
    }
  }
  {
    ContinuousMinerState state = good;
    for (auto& mask : state.window_masks) {
      if (!mask.empty()) {
        mask.back() = static_cast<uint32_t>(good.letters.size());
        expect_rejected(std::move(state), "out-of-range letter index");
        break;
      }
    }
  }
  {
    ContinuousMinerState state = good;
    for (auto& mask : state.window_masks) {
      if (!mask.empty()) {
        mask.erase(mask.begin());  // Counts no longer re-aggregate.
        expect_rejected(std::move(state), "masks disagree with counts");
        break;
      }
    }
  }
  {
    // Keep the per-letter counts consistent but break the hit multiset:
    // move one letter from a >=2-letter mask into a disjoint mask. Every
    // letter is still counted once per original segment, so only the
    // masks-vs-hits cross-check can catch it.
    ContinuousMinerState state = good;
    bool mutated = false;
    for (size_t i = 0; i < state.window_masks.size() && !mutated; ++i) {
      auto& from = state.window_masks[i];
      if (from.size() < 2) continue;
      for (size_t j = 0; j < state.window_masks.size() && !mutated; ++j) {
        if (j == i) continue;
        auto& to = state.window_masks[j];
        const uint32_t moved = from.back();
        if (std::find(to.begin(), to.end(), moved) != to.end()) continue;
        from.pop_back();
        to.insert(std::upper_bound(to.begin(), to.end(), moved), moved);
        mutated = true;
      }
    }
    if (mutated) {
      expect_rejected(std::move(state), "masks disagree with hits");
    }
  }
}

TEST(CheckpointStateTest, ContinuousExportRestoreRoundTripsWithWindow) {
  const TimeSeries series = MakeSeries(900, 17);
  ContinuousOptions continuous;
  continuous.window_segments = 8;
  continuous.compact_every = 5;
  continuous.drift_window = 3;
  for (const uint64_t cut : {120ull, 357ull, 600ull, 899ull}) {
    auto original = SeededContinuousMiner(series, 120, continuous);
    for (uint64_t t = 120; t < cut; ++t) original->Append(series.at(t));

    const ContinuousMinerState state = original->ExportState();
    auto restored = ContinuousMiner::Restore(DefaultOptions(), state,
                                             continuous.compact_every);
    ASSERT_TRUE(restored.ok()) << "cut " << cut << ": " << restored.status();
    ExpectStatesEqual((*restored)->ExportState(), state);

    for (uint64_t t = cut; t < series.length(); ++t) {
      original->Append(series.at(t));
      (*restored)->Append(series.at(t));
    }
    ExpectStatesEqual((*restored)->ExportState(),
                                original->ExportState());
    EXPECT_EQ((*restored)->Snapshot().ToString(series.symbols()),
              original->Snapshot().ToString(series.symbols()));
    EXPECT_EQ((*restored)->segments_evicted(), original->segments_evicted());
  }
}

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/stream_ckpt_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CheckpointDirTest, WriteReadCheckpointRoundTrip) {
  const TimeSeries series = MakeSeries(800, 11);
  auto miner = SeededContinuousMiner(series, 200, {.drift_window = 5});
  for (uint64_t t = 200; t < 650; ++t) miner->Append(series.at(t));

  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->period, 4u);
  EXPECT_EQ(data->symbols, series.symbols().names());

  auto restored = RestoreContinuousMiner(*data, DefaultOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectStatesEqual((*restored)->ExportState(), miner->ExportState());
}

// Byte-identity pin: the checkpoint of a fixed windowed stream as size +
// CRC-32C of the file.
TEST_F(CheckpointDirTest, GoldenBytesArePinned) {
  const TimeSeries series = MakeSeries(60, 5);
  ContinuousOptions continuous;
  continuous.window_segments = 4;
  auto miner = SeededContinuousMiner(series, 24, continuous);
  for (uint64_t t = 24; t < 43; ++t) miner->Append(series.at(t));
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const std::string bytes = FileBytes(CheckpointPath(dir_));
  EXPECT_EQ(bytes.size(), 291u);
  EXPECT_EQ(crc32c::Value(bytes), 0x5aab3f3au);
}

TEST_F(CheckpointDirTest, WindowedCheckpointRoundTrips) {
  const TimeSeries series = MakeSeries(800, 19);
  ContinuousOptions continuous;
  continuous.window_segments = 10;
  continuous.drift_window = 5;
  auto miner = SeededContinuousMiner(series, 200, continuous);
  for (uint64_t t = 200; t < 650; ++t) miner->Append(series.at(t));
  ASSERT_GT(miner->segments_evicted(), 0u);

  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->state.window_segments, 10u);
  EXPECT_EQ(data->state.window_masks.size(), 10u);

  auto restored = RestoreContinuousMiner(*data, DefaultOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectStatesEqual((*restored)->ExportState(), miner->ExportState());
  EXPECT_EQ((*restored)->segments_evicted(), miner->segments_evicted());
}

// A state block declares its period before the per-position rows; the
// decoder must weigh it against the bytes left before allocating a row per
// position, or an 84-byte file declaring 2^24 positions would allocate
// hundreds of MiB before being rejected.
TEST_F(CheckpointDirTest, PeriodBeyondRemainingBytesIsCorruption) {
  std::string block;
  bytes::PutU32(&block, kCheckpointVersion);
  bytes::PutU32(&block, 1u << 24);  // period
  bytes::PutF64(&block, 0.7);       // min_confidence
  bytes::PutU64(&block, 0);         // min_count
  bytes::PutU32(&block, 0);         // max_letters
  bytes::PutU32(&block, 0);         // hit_store
  bytes::PutU32(&block, 0);         // drift_window
  bytes::PutU32(&block, 0);         // window_segments
  bytes::PutU64(&block, 0);         // instants_seen
  bytes::PutU64(&block, 0);         // segments_committed
  bytes::PutU32(&block, 0);         // symbol count
  bytes::PutU32(&block, 0);         // letter count
  WriteBytes(CheckpointPath(dir_), bytes::FrameFile(kCheckpointMagic, block));

  const auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kCorruption);
  EXPECT_NE(data.status().ToString().find("period"), std::string::npos)
      << data.status();
}

// Version-1 state blocks predate the pattern window: the v2 layout minus
// the `window_segments` u32 at offset 36 and the window-mask count right
// before the hits. Rewriting a whole-history v2 checkpoint that way must
// decode to the same state, and the stream must resume from it.
TEST_F(CheckpointDirTest, VersionOneCheckpointRestoresAndResumes) {
  const TimeSeries series = MakeSeries(400, 31);
  const uint64_t kPrefix = 100;
  const uint64_t kCheckpointAt = 250;
  const uint64_t kCrashAt = 333;
  auto miner = SeededContinuousMiner(series, kPrefix, {.drift_window = 5});
  {
    auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                     0, 0);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (uint64_t t = 0; t < kCrashAt; ++t) {
      ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      if (t >= kPrefix) miner->Append(series.at(t));
      if (t + 1 == kCheckpointAt) {
        ASSERT_TRUE(
            CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
      }
    }
  }

  const auto v2 = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(v2.ok()) << v2.status();
  ASSERT_EQ(v2->state.window_segments, 0u);
  ASSERT_FALSE(v2->state.hits.empty());
  const std::string v2_file = FileBytes(CheckpointPath(dir_));
  const auto v2_block =
      bytes::UnframeFile(v2_file, kCheckpointMagic, "v2 checkpoint");
  ASSERT_TRUE(v2_block.ok()) << v2_block.status();
  std::string block(*v2_block);
  size_t hit_bytes = 8;  // u64 hit count
  for (const auto& [mask_bits, count] : v2->state.hits) {
    hit_bytes += 4 + 4 * mask_bits.size() + 8;
  }
  const std::string zero_u32(4, '\0');
  const size_t mask_count_at = block.size() - hit_bytes - 4;
  ASSERT_EQ(block.substr(mask_count_at, 4), zero_u32);
  block.erase(mask_count_at, 4);
  ASSERT_EQ(block.substr(36, 4), zero_u32);  // window_segments
  block.erase(36, 4);
  std::string version;
  bytes::PutU32(&version, 1);
  block.replace(0, 4, version);
  WriteBytes(CheckpointPath(dir_), bytes::FrameFile(kCheckpointMagic, block));

  const auto v1 = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(v1->period, v2->period);
  EXPECT_EQ(v1->min_confidence, v2->min_confidence);
  EXPECT_EQ(v1->min_count, v2->min_count);
  EXPECT_EQ(v1->max_letters, v2->max_letters);
  EXPECT_EQ(v1->hit_store, v2->hit_store);
  EXPECT_EQ(v1->symbols, v2->symbols);
  ExpectStatesEqual(v1->state, v2->state);

  auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ContinuousMiner& resumed = *recovered->miner;
  EXPECT_EQ(resumed.instants_seen(), kCrashAt);
  ExpectStatesEqual(resumed.ExportState(), miner->ExportState());
  for (uint64_t t = kCrashAt; t < series.length(); ++t) {
    miner->Append(series.at(t));
    resumed.Append(series.at(t));
  }
  ExpectStatesEqual(resumed.ExportState(), miner->ExportState());
  EXPECT_EQ(resumed.Snapshot().ToString(series.symbols()),
            miner->Snapshot().ToString(series.symbols()));
}

/// One stream configuration a harness below runs over: the series
/// `MakeSeries(length, seed)`, the seeding prefix, the instant the stream
/// runs to, and the engine options.
struct StreamCase {
  const char* name;
  uint64_t length;
  uint64_t seed;
  uint64_t prefix;
  uint64_t end;
  ContinuousOptions continuous;
};

std::string CaseName(const ::testing::TestParamInfo<StreamCase>& info) {
  return info.param.name;
}

void PrintTo(const StreamCase& config, std::ostream* out) {
  *out << config.name;
}

class StreamCaseTest : public CheckpointDirTest,
                       public ::testing::WithParamInterface<StreamCase> {};

// The kill-point matrix: run the `ppm stream` protocol, crash after every
// instant (torn WAL tails on a third of the cuts), recover with
// `RecoverContinuousStream`, finish the stream, and demand a state
// field-identical to the uninterrupted run. In the windowed configuration
// every commit evicts and the hit store compacts every 3 segments, so cuts
// also land immediately after an eviction or mid-way between two
// compactions.
class KillPointMatrixTest : public StreamCaseTest {};

TEST_P(KillPointMatrixTest, RecoversDeterministically) {
  const StreamCase& config = GetParam();
  const ContinuousOptions& continuous = config.continuous;
  const TimeSeries series = MakeSeries(config.length, config.seed);
  const uint64_t kPrefix = config.prefix;
  const uint64_t kCheckpointEverySegments = 8;

  // The uninterrupted reference.
  auto reference = SeededContinuousMiner(series, kPrefix, continuous);
  for (uint64_t t = kPrefix; t < config.end; ++t) {
    reference->Append(series.at(t));
  }
  const std::string ref_snapshot =
      reference->Snapshot().ToString(series.symbols());
  const ContinuousMinerState ref_state = reference->ExportState();

  for (uint64_t cut = kPrefix; cut <= config.end; ++cut) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // Run the `ppm stream` protocol up to the kill point `cut`.
    {
      auto miner = SeededContinuousMiner(series, kPrefix, continuous);
      auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                       0, 0);
      ASSERT_TRUE(wal.ok()) << wal.status();
      for (uint64_t t = 0; t < kPrefix; ++t) {
        ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      }
      ASSERT_TRUE(
          CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
      uint64_t last_checkpoint = miner->segments_committed();
      for (uint64_t t = kPrefix; t < cut; ++t) {
        ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
        miner->Append(series.at(t));
        if (miner->instants_seen() % 4 == 0 &&
            miner->segments_committed() - last_checkpoint >=
                kCheckpointEverySegments) {
          ASSERT_TRUE(
              CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
          last_checkpoint = miner->segments_committed();
        }
      }
      // Crash: no final checkpoint, and on some cuts a torn half-frame
      // lands in the WAL (what the mid-append kill switch produces).
      if (cut % 3 == 1) {
        std::ofstream torn(WalPath(dir_),
                           std::ios::binary | std::ios::app);
        torn.write("\xab\xcd\xef", static_cast<std::streamsize>(cut % 3));
      }
    }

    // Recover, finish the stream, and demand the exact reference state.
    auto recovered = RecoverContinuousStream(dir_, DefaultOptions(),
                                             continuous.compact_every);
    ASSERT_TRUE(recovered.ok()) << "cut " << cut << ": "
                                << recovered.status();
    ContinuousMiner& miner = *recovered->miner;
    EXPECT_EQ(miner.instants_seen(), cut) << "cut " << cut;
    EXPECT_EQ(miner.window_segments(), continuous.window_segments);
    auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                     recovered->wal.next_seq,
                                     recovered->wal.valid_bytes);
    ASSERT_TRUE(wal.ok()) << "cut " << cut << ": " << wal.status();
    for (uint64_t t = miner.instants_seen(); t < config.end; ++t) {
      ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      miner.Append(series.at(t));
    }
    ExpectStatesEqual(miner.ExportState(), ref_state);
    EXPECT_EQ(miner.Snapshot().ToString(series.symbols()), ref_snapshot)
        << "cut " << cut;
    EXPECT_EQ(miner.segments_evicted(), reference->segments_evicted())
        << "cut " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KillPointMatrixTest,
    ::testing::Values(StreamCase{"WholeHistory", 400, 7, 100, 400, {}},
                      StreamCase{"Windowed", 400, 23, 100, 400,
                                 {.drift_window = 4,
                                  .window_segments = 6,
                                  .compact_every = 3}}),
    CaseName);

// The every-offset harness: truncation and single-bit damage anywhere in a
// checkpoint file -- including inside the window-mask section of the
// windowed configuration -- must read as corruption.
class CheckpointCorruptionTest : public StreamCaseTest {
 protected:
  void SetUp() override {
    CheckpointDirTest::SetUp();
    const StreamCase& config = GetParam();
    const TimeSeries series = MakeSeries(config.length, config.seed);
    auto miner =
        SeededContinuousMiner(series, config.prefix, config.continuous);
    for (uint64_t t = config.prefix; t < config.end; ++t) {
      miner->Append(series.at(t));
    }
    if (config.continuous.window_segments > 0) {
      ASSERT_GT(miner->segments_evicted(), 0u);
    }
    ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
    path_ = CheckpointPath(dir_);
    bytes_ = FileBytes(path_);
    ASSERT_GT(bytes_.size(), 20u);
  }

  std::string path_;
  std::string bytes_;
};

TEST_P(CheckpointCorruptionTest, TruncationAtEveryOffsetIsCorruption) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    WriteBytes(path_, bytes_.substr(0, len));
    const auto data = ReadCheckpoint(path_);
    ASSERT_FALSE(data.ok()) << "accepted a checkpoint truncated to " << len
                            << " of " << bytes_.size() << " bytes";
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << "truncated to " << len << ": " << data.status();
  }
}

TEST_P(CheckpointCorruptionTest, BitFlipAtEveryOffsetIsCorruption) {
  const uint64_t seed = FaultSeed();
  for (size_t offset = 0; offset < bytes_.size(); ++offset) {
    std::string corrupted = bytes_;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^
        (1u << BitForOffset(seed, offset)));
    WriteBytes(path_, corrupted);
    const auto data = ReadCheckpoint(path_);
    ASSERT_FALSE(data.ok()) << "accepted a flip of bit "
                            << BitForOffset(seed, offset) << " at offset "
                            << offset << " (seed " << seed << ")";
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << "flip at offset " << offset << ": " << data.status();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CheckpointCorruptionTest,
    ::testing::Values(StreamCase{"WholeHistory", 600, 3, 150, 500,
                                 {.drift_window = 7}},
                      StreamCase{"Windowed", 320, 29, 100, 300,
                                 {.drift_window = 3, .window_segments = 8}}),
    CaseName);

TEST_F(CheckpointDirTest, FailedCheckpointWriteKeepsLastGood) {
  const TimeSeries series = MakeSeries(400, 21);
  auto miner = SeededContinuousMiner(series, 100);
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const uint64_t good_instants = miner->instants_seen();

  for (uint64_t t = 100; t < 300; ++t) miner->Append(series.at(t));
  {
    tsdb::FaultPlan plan;
    plan.seed = 1;
    plan.fail_fsync = true;
    tsdb::ScopedFaultInjection scoped(plan);
    const Status failed = WriteCheckpoint(*miner, series.symbols(), dir_);
    ASSERT_FALSE(failed.ok());
  }
  // The failed write left no temp file and the previous checkpoint intact.
  EXPECT_FALSE(fs::exists(CheckpointPath(dir_) + ".tmp"));
  const auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->state.instants_seen, good_instants);
}

TEST_F(CheckpointDirTest, CheckpointWithoutWalIsCorruption) {
  const TimeSeries series = MakeSeries(400, 2);
  auto miner = SeededContinuousMiner(series, 100);
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointDirTest, CheckpointAheadOfWalIsCorruption) {
  const TimeSeries series = MakeSeries(400, 2);
  auto miner = SeededContinuousMiner(series, 100);
  // A WAL that durably holds fewer instants than the checkpoint covers.
  auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                   0, 0);
  ASSERT_TRUE(wal.ok());
  for (uint64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  EXPECT_NE(recovered.status().ToString().find("ahead of the durable WAL"),
            std::string::npos)
      << recovered.status();
}

TEST_F(CheckpointDirTest, MissingCheckpointIsNotFound) {
  const auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ppm::stream
