#include "query/constraints.h"

#include <gtest/gtest.h>

#include "tsdb/series_source.h"
#include "util/random.h"

namespace ppm::query {
namespace {

using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

/// Period-4 series with letters a@0 (conf 1.0), b@1 (0.9), c@2 (0.8),
/// d@3 (0.7), all planted independently.
TimeSeries MakeSeries() {
  Rng rng(77);
  TimeSeries series;
  series.symbols().Intern("a");
  series.symbols().Intern("b");
  series.symbols().Intern("c");
  series.symbols().Intern("d");
  for (int segment = 0; segment < 400; ++segment) {
    const double probs[4] = {1.0, 0.9, 0.8, 0.7};
    for (uint32_t position = 0; position < 4; ++position) {
      tsdb::FeatureSet instant;
      if (rng.NextBool(probs[position])) instant.Set(position);
      series.Append(std::move(instant));
    }
  }
  return series;
}

MiningOptions DefaultOptions() {
  MiningOptions options;
  options.period = 4;
  options.min_confidence = 0.6;
  return options;
}

TEST(ConstrainedMineTest, UnconstrainedBaseline) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  auto result = MineConstrained(source, DefaultOptions(), Constraints());
  ASSERT_TRUE(result.ok()) << result.status();
  // a,b,c,d + pairs ab,ac,ad,bc + maybe more; at least the four letters.
  EXPECT_GE(result->size(), 4u);
}

TEST(ConstrainedMineTest, AllowedFeaturesPushdown) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  Constraints constraints;
  constraints.allowed_features = {0, 1};  // Only a and b.
  auto result = MineConstrained(source, DefaultOptions(), constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  for (const auto& entry : result->patterns()) {
    for (const Letter& letter : entry.pattern.letters()) {
      EXPECT_LE(letter.feature, 1u);
    }
  }
  // Pushdown shrank F_1 to the allowed letters.
  EXPECT_EQ(result->stats().num_f1_letters, 2u);
}

TEST(ConstrainedMineTest, OffsetWindowPushdown) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  Constraints constraints;
  constraints.offset_low = 1;
  constraints.offset_high = 2;
  auto result = MineConstrained(source, DefaultOptions(), constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  for (const auto& entry : result->patterns()) {
    for (const Letter& letter : entry.pattern.letters()) {
      EXPECT_GE(letter.position, 1u);
      EXPECT_LE(letter.position, 2u);
    }
  }
}

TEST(ConstrainedMineTest, RequiredLetters) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  Constraints constraints;
  constraints.required_letters = {Letter{0, 0}};  // Must contain a@0.
  auto result = MineConstrained(source, DefaultOptions(), constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  for (const auto& entry : result->patterns()) {
    EXPECT_TRUE(entry.pattern.HasLetter(0, 0));
  }
}

TEST(ConstrainedMineTest, MinLLengthAndMaxLetters) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  Constraints constraints;
  constraints.min_l_length = 2;
  constraints.max_letters = 2;
  auto result = MineConstrained(source, DefaultOptions(), constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  for (const auto& entry : result->patterns()) {
    EXPECT_EQ(entry.pattern.LetterCount(), 2u);
    EXPECT_EQ(entry.pattern.LLength(), 2u);
  }
}

TEST(ConstrainedMineTest, TopKKeepsHighestConfidence) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  Constraints constraints;
  constraints.max_letters = 1;
  constraints.top_k = 2;
  auto result = MineConstrained(source, DefaultOptions(), constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  // The two strongest letters are a@0 (1.0) and b@1 (~0.9).
  bool has_a = false, has_b = false;
  for (const auto& entry : result->patterns()) {
    if (entry.pattern.HasLetter(0, 0)) has_a = true;
    if (entry.pattern.HasLetter(1, 1)) has_b = true;
  }
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
}

TEST(ConstrainedMineTest, PushdownEqualsPostFilter) {
  // Pushing constraints down must give the same answer as mining
  // unconstrained and filtering (for threshold-independent constraints).
  TimeSeries series = MakeSeries();
  Constraints constraints;
  constraints.allowed_features = {0, 1, 2};
  constraints.offset_low = 0;
  constraints.offset_high = 2;
  constraints.min_l_length = 1;

  InMemorySeriesSource pushed_source(&series);
  auto pushed = MineConstrained(pushed_source, DefaultOptions(), constraints);
  ASSERT_TRUE(pushed.ok());

  InMemorySeriesSource plain_source(&series);
  auto plain = Mine(plain_source, DefaultOptions());
  ASSERT_TRUE(plain.ok());
  const auto filtered = FilterPatterns(*plain, constraints);

  ASSERT_EQ(pushed->size(), filtered.size());
  for (size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(pushed->patterns()[i].pattern, filtered[i].pattern);
    EXPECT_EQ(pushed->patterns()[i].count, filtered[i].count);
  }
}

TEST(ConstrainedMineTest, ComposesWithUserLetterFilter) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  MiningOptions options = DefaultOptions();
  options.letter_filter = [](uint32_t, tsdb::FeatureId feature) {
    return feature != 1;  // User already excluded b.
  };
  Constraints constraints;
  constraints.allowed_features = {0, 1};  // Constraint allows a and b.
  auto result = MineConstrained(source, options, constraints);
  ASSERT_TRUE(result.ok());
  // Intersection: only a.
  for (const auto& entry : result->patterns()) {
    for (const Letter& letter : entry.pattern.letters()) {
      EXPECT_EQ(letter.feature, 0u);
    }
  }
}

TEST(ConstrainedMineTest, EmptyConstraintsEqualUnconstrainedMining) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource constrained_source(&series);
  auto constrained =
      MineConstrained(constrained_source, DefaultOptions(), Constraints());
  ASSERT_TRUE(constrained.ok());
  InMemorySeriesSource plain_source(&series);
  auto plain = Mine(plain_source, DefaultOptions());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(constrained->size(), plain->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ(constrained->patterns()[i].pattern, plain->patterns()[i].pattern);
    EXPECT_EQ(constrained->patterns()[i].count, plain->patterns()[i].count);
  }
}

TEST(ConstrainedMineTest, WorksWithAllAlgorithms) {
  TimeSeries series = MakeSeries();
  Constraints constraints;
  constraints.allowed_features = {0, 1};
  for (const Algorithm algorithm :
       {Algorithm::kApriori, Algorithm::kMaxSubpatternHitSet}) {
    InMemorySeriesSource source(&series);
    auto result =
        MineConstrained(source, DefaultOptions(), constraints, algorithm);
    ASSERT_TRUE(result.ok()) << AlgorithmToString(algorithm);
    EXPECT_EQ(result->stats().num_f1_letters, 2u);
  }
}

TEST(ConstrainedMineTest, InvalidConstraintsRejected) {
  TimeSeries series = MakeSeries();
  InMemorySeriesSource source(&series);
  Constraints constraints;
  constraints.offset_low = 3;
  constraints.offset_high = 1;
  EXPECT_FALSE(MineConstrained(source, DefaultOptions(), constraints).ok());

  constraints = Constraints();
  constraints.required_letters = {Letter{9, 0}};
  EXPECT_FALSE(MineConstrained(source, DefaultOptions(), constraints).ok());

  constraints = Constraints();
  constraints.required_letters = {Letter{0, 0}};
  constraints.allowed_features = {1};
  EXPECT_FALSE(MineConstrained(source, DefaultOptions(), constraints).ok());

  constraints = Constraints();
  constraints.required_letters = {Letter{0, 0}, Letter{1, 1}};
  constraints.max_letters = 1;
  EXPECT_FALSE(MineConstrained(source, DefaultOptions(), constraints).ok());

  constraints = Constraints();
  constraints.min_l_length = 3;
  constraints.max_letters = 2;
  EXPECT_FALSE(MineConstrained(source, DefaultOptions(), constraints).ok());
}

}  // namespace
}  // namespace ppm::query
