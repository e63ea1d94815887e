// Shard plan invariants: splitting, tiling validation, the durable
// manifest round trip, and fingerprint binding.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/shard_plan.h"
#include "dist/shard_result.h"
#include "util/crc32c.h"

namespace ppm::dist {
namespace {

MiningOptions BaseOptions() {
  MiningOptions options;
  options.period = 4;
  options.min_confidence = 0.5;
  return options;
}

TEST(PlanShardsTest, SplitsIntoContiguousNearEqualRanges) {
  const auto plan = PlanShards({{"a.ppmts", 4 * 10}}, BaseOptions(), 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->shards.size(), 4u);
  EXPECT_EQ(plan->inputs.size(), 1u);
  EXPECT_EQ(plan->inputs[0].num_segments, 10u);
  uint64_t covered = 0;
  for (size_t i = 0; i < plan->shards.size(); ++i) {
    const ShardSpec& shard = plan->shards[i];
    EXPECT_EQ(shard.shard_id, i);
    EXPECT_EQ(shard.input_index, 0u);
    EXPECT_EQ(shard.segment_begin, covered);
    covered = shard.segment_end;
    // Near-equal: 10 segments over 4 shards is 2 or 3 each.
    EXPECT_GE(shard.num_segments(), 2u);
    EXPECT_LE(shard.num_segments(), 3u);
  }
  EXPECT_EQ(covered, 10u);
  EXPECT_TRUE(ValidatePlan(*plan).ok());
}

TEST(PlanShardsTest, FewerShardsWhenInputIsSmall) {
  // 2 whole segments cannot feed 8 shards; the planner degrades to 2.
  const auto plan = PlanShards({{"a.ppmts", 4 * 2 + 3}}, BaseOptions(), 8);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->shards.size(), 2u);
  EXPECT_EQ(plan->inputs[0].num_segments, 2u);  // partial segment dropped
}

TEST(PlanShardsTest, CorpusGetsShardsPerInput) {
  const auto plan = PlanShards({{"a.ppmts", 4 * 6}, {"b.ppmts", 4 * 9}},
                               BaseOptions(), 2);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->shards.size(), 4u);
  EXPECT_EQ(plan->shards[0].input_index, 0u);
  EXPECT_EQ(plan->shards[1].input_index, 0u);
  EXPECT_EQ(plan->shards[2].input_index, 1u);
  EXPECT_EQ(plan->shards[3].input_index, 1u);
  EXPECT_TRUE(ValidatePlan(*plan).ok());
}

TEST(PlanShardsTest, RejectsInputWithNoWholeSegment) {
  const auto plan = PlanShards({{"a.ppmts", 3}}, BaseOptions(), 2);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanShardsTest, RejectsZeroShardsPerInput) {
  EXPECT_FALSE(PlanShards({{"a.ppmts", 40}}, BaseOptions(), 0).ok());
}

TEST(ValidatePlanTest, CatchesGapOverlapAndBadIds) {
  auto base = PlanShards({{"a.ppmts", 4 * 8}}, BaseOptions(), 2);
  ASSERT_TRUE(base.ok());

  ShardPlan gap = *base;
  gap.shards[1].segment_begin += 1;  // hole between shard 0 and 1
  EXPECT_FALSE(ValidatePlan(gap).ok());

  ShardPlan overlap = *base;
  overlap.shards[1].segment_begin -= 1;
  EXPECT_FALSE(ValidatePlan(overlap).ok());

  ShardPlan bad_id = *base;
  bad_id.shards[1].shard_id = 7;
  EXPECT_FALSE(ValidatePlan(bad_id).ok());

  ShardPlan empty_range = *base;
  empty_range.shards[0].segment_end = empty_range.shards[0].segment_begin;
  EXPECT_FALSE(ValidatePlan(empty_range).ok());

  ShardPlan out_of_bounds = *base;
  out_of_bounds.shards[1].segment_end += 5;
  EXPECT_FALSE(ValidatePlan(out_of_bounds).ok());
}

TEST(PlanFileTest, RoundTripsAndStampsFingerprint) {
  const std::string path = testing::TempDir() + "/roundtrip.plan";
  MiningOptions options = BaseOptions();
  options.min_count = 3;
  options.max_letters = 5;
  auto plan = PlanShards({{"series/a.ppmts", 4 * 12}}, options, 3);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(WritePlanFile(&*plan, path).ok());
  EXPECT_NE(plan->fingerprint, 0u);

  const auto read = ReadPlanFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->fingerprint, plan->fingerprint);
  EXPECT_EQ(read->period, 4u);
  EXPECT_EQ(read->min_count, 3u);
  EXPECT_EQ(read->max_letters, 5u);
  ASSERT_EQ(read->inputs.size(), 1u);
  EXPECT_EQ(read->inputs[0].path, "series/a.ppmts");
  EXPECT_EQ(read->inputs[0].length, 48u);
  ASSERT_EQ(read->shards.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read->shards[i].segment_begin, plan->shards[i].segment_begin);
    EXPECT_EQ(read->shards[i].segment_end, plan->shards[i].segment_end);
  }
  std::remove(path.c_str());
}

TEST(PlanFileTest, MissingFileIsNotFound) {
  const auto read = ReadPlanFile(testing::TempDir() + "/nope.plan");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(PlanFileTest, DifferentParametersDifferentFingerprint) {
  const std::string a_path = testing::TempDir() + "/fp_a.plan";
  const std::string b_path = testing::TempDir() + "/fp_b.plan";
  auto a = PlanShards({{"a.ppmts", 40}}, BaseOptions(), 2);
  MiningOptions other = BaseOptions();
  other.min_confidence = 0.75;
  auto b = PlanShards({{"a.ppmts", 40}}, other, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(WritePlanFile(&*a, a_path).ok());
  ASSERT_TRUE(WritePlanFile(&*b, b_path).ok());
  EXPECT_NE(a->fingerprint, b->fingerprint);
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Byte-identity pins: a fixed plan (fixed input path, not a temp path) and
// a fixed shard result, as size + CRC-32C of the written files.
TEST(PlanFileTest, GoldenBytesArePinned) {
  const std::string path = testing::TempDir() + "/golden.plan";
  MiningOptions options = BaseOptions();
  options.min_count = 3;
  options.max_letters = 5;
  auto plan = PlanShards(
      {{"series/a.ppmts", 4 * 12}, {"series/b.ppmts", 4 * 5}}, options, 3);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(WritePlanFile(&*plan, path).ok());
  const std::string bytes = FileBytes(path);
  EXPECT_EQ(bytes.size(), 268u);
  EXPECT_EQ(crc32c::Value(bytes), 0xd0de6c81u);
  std::remove(path.c_str());
}

TEST(ShardResultFileTest, GoldenBytesArePinned) {
  const std::string path = testing::TempDir() + "/golden.result";
  ShardResult result;
  result.plan_fingerprint = 0x1234abcdu;
  result.shard_id = 2;
  result.input_index = 1;
  result.segment_begin = 8;
  result.segment_end = 12;
  result.symbols = {"a", "bb", "ccc"};
  result.letter_counts = {{{0, 0}, 4}, {{1, 2}, 3}, {{3, 1}, 1}};
  result.hits = {{{{0, 0}, {1, 2}}, 2}, {{{0, 0}, {3, 1}}, 1}};
  ASSERT_TRUE(WriteShardResultFile(result, path).ok());
  const std::string bytes = FileBytes(path);
  EXPECT_EQ(bytes.size(), 190u);
  EXPECT_EQ(crc32c::Value(bytes), 0x8040d957u);
  std::remove(path.c_str());
}

TEST(PlanTest, ToMiningOptionsCarriesParameters) {
  MiningOptions options = BaseOptions();
  options.min_count = 2;
  options.max_letters = 6;
  const auto plan = PlanShards({{"a.ppmts", 40}}, options, 2);
  ASSERT_TRUE(plan.ok());
  const MiningOptions round = plan->ToMiningOptions();
  EXPECT_EQ(round.period, 4u);
  EXPECT_EQ(round.min_count, 2u);
  EXPECT_EQ(round.max_letters, 6u);
  EXPECT_DOUBLE_EQ(round.min_confidence, 0.5);
}

TEST(ShardResultPathTest, CanonicalLayout) {
  EXPECT_EQ(ShardResultPath("/tmp/results", 7), "/tmp/results/shard-7.result");
}

}  // namespace
}  // namespace ppm::dist
