#include "multidim/multidim.h"

#include <gtest/gtest.h>

#include "core/miner.h"
#include "util/random.h"

namespace ppm::multidim {
namespace {

TEST(BuilderTest, CombinesDimensions) {
  DimensionedSeriesBuilder builder;
  ASSERT_TRUE(builder.AddDimension("weather", {"cold", "warm"}).ok());
  ASSERT_TRUE(builder.AddDimension("traffic", {"jam", ""}).ok());
  auto series = builder.Build();
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->length(), 2u);
  EXPECT_TRUE(series->at(0).Test(*series->symbols().Lookup("weather:cold")));
  EXPECT_TRUE(series->at(0).Test(*series->symbols().Lookup("traffic:jam")));
  EXPECT_EQ(series->at(0).Count(), 2u);
  // Empty value -> no feature in that dimension.
  EXPECT_EQ(series->at(1).Count(), 1u);
  EXPECT_TRUE(series->at(1).Test(*series->symbols().Lookup("weather:warm")));
}

TEST(BuilderTest, Validation) {
  DimensionedSeriesBuilder builder;
  EXPECT_FALSE(builder.AddDimension("", {"x"}).ok());
  EXPECT_FALSE(builder.AddDimension("a:b", {"x"}).ok());
  ASSERT_TRUE(builder.AddDimension("a", {"x", "y"}).ok());
  EXPECT_EQ(builder.AddDimension("a", {"x", "y"}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(builder.AddDimension("b", {"x"}).ok());  // Length mismatch.
  EXPECT_FALSE(DimensionedSeriesBuilder().Build().ok());
}

TEST(DimensionOfTest, ParsesNames) {
  EXPECT_EQ(DimensionOf("weather:cold"), "weather");
  EXPECT_EQ(DimensionOf("a:b:c"), "a");
  EXPECT_EQ(DimensionOf("plain"), "");
}

TEST(ProjectionTest, SlicesPatternByDimension) {
  DimensionedSeriesBuilder builder;
  ASSERT_TRUE(builder.AddDimension("w", {"c", "h"}).ok());
  ASSERT_TRUE(builder.AddDimension("t", {"jam", "free"}).ok());
  auto series = builder.Build();
  ASSERT_TRUE(series.ok());

  Pattern pattern(2);
  pattern.AddLetter(0, *series->symbols().Lookup("w:c"));
  pattern.AddLetter(0, *series->symbols().Lookup("t:jam"));
  pattern.AddLetter(1, *series->symbols().Lookup("w:h"));

  const Pattern weather = ProjectPattern(pattern, series->symbols(), "w");
  EXPECT_EQ(weather.LetterCount(), 2u);
  const Pattern traffic = ProjectPattern(pattern, series->symbols(), "t");
  EXPECT_EQ(traffic.LetterCount(), 1u);
  EXPECT_TRUE(traffic.HasLetter(0, *series->symbols().Lookup("t:jam")));
  EXPECT_TRUE(weather.IsSubpatternOf(pattern));
  EXPECT_EQ(DimensionCount(pattern, series->symbols()), 2u);
  EXPECT_EQ(DimensionCount(weather, series->symbols()), 1u);
}

TEST(CrossDimensionalMiningTest, FindsInterDimensionRegularity) {
  // Weekly rhythm over 2 instants/day * 7 days: Monday morning is cold AND
  // jammed with high probability; other correlations absent.
  Rng rng(12);
  std::vector<std::string> weather, traffic;
  const int weeks = 100;
  for (int week = 0; week < weeks; ++week) {
    for (int day = 0; day < 7; ++day) {
      for (int half = 0; half < 2; ++half) {
        const bool monday_morning = day == 0 && half == 0;
        if (monday_morning && rng.NextBool(0.9)) {
          weather.push_back("cold");
          traffic.push_back("jam");
        } else {
          weather.push_back(rng.NextBool(0.3) ? "cold" : "warm");
          traffic.push_back(rng.NextBool(0.3) ? "jam" : "free");
        }
      }
    }
  }
  DimensionedSeriesBuilder builder;
  ASSERT_TRUE(builder.AddDimension("weather", weather).ok());
  ASSERT_TRUE(builder.AddDimension("traffic", traffic).ok());
  auto series = builder.Build();
  ASSERT_TRUE(series.ok());

  MiningOptions options;
  options.period = 14;
  options.min_confidence = 0.75;
  auto result = Mine(*series, options);
  ASSERT_TRUE(result.ok());

  const auto cross = CrossDimensionalPatterns(*result, series->symbols());
  ASSERT_FALSE(cross.empty());
  bool found = false;
  for (const FrequentPattern& entry : cross) {
    const auto cold = series->symbols().Lookup("weather:cold");
    const auto jam = series->symbols().Lookup("traffic:jam");
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(jam.ok());
    if (entry.pattern.HasLetter(0, *cold) && entry.pattern.HasLetter(0, *jam)) {
      found = true;
      EXPECT_GE(entry.confidence, 0.75);
    }
  }
  EXPECT_TRUE(found);
  // Every cross pattern genuinely spans two dimensions.
  for (const FrequentPattern& entry : cross) {
    EXPECT_GE(DimensionCount(entry.pattern, series->symbols()), 2u);
  }
}

TEST(CrossDimensionalTest, EmptyResultYieldsNothing) {
  MiningResult empty;
  tsdb::SymbolTable symbols;
  EXPECT_TRUE(CrossDimensionalPatterns(empty, symbols).empty());
}

}  // namespace
}  // namespace ppm::multidim
