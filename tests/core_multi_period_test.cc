#include "core/multi_period.h"

#include <gtest/gtest.h>

#include <map>

#include "core/hitset_miner.h"
#include "tsdb/series_source.h"
#include "util/random.h"

namespace ppm {
namespace {

using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

TimeSeries MakeMixedPeriodSeries(uint64_t length) {
  // Plant period-3 and period-4 regularities plus noise.
  Rng rng(2024);
  TimeSeries series;
  series.symbols().Intern("p3");
  series.symbols().Intern("p4");
  series.symbols().Intern("noise");
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    if (t % 3 == 1 && rng.NextBool(0.9)) instant.Set(0);
    if (t % 4 == 2 && rng.NextBool(0.85)) instant.Set(1);
    if (rng.NextBool(0.1)) instant.Set(2);
    series.Append(std::move(instant));
  }
  return series;
}

std::map<std::string, uint64_t> AsCountMap(const MiningResult& result,
                                           const tsdb::SymbolTable& symbols) {
  std::map<std::string, uint64_t> out;
  for (const FrequentPattern& entry : result.patterns()) {
    out[entry.pattern.Format(symbols)] = entry.count;
  }
  return out;
}

TEST(MultiPeriodTest, SharedEqualsLooped) {
  const TimeSeries series = MakeMixedPeriodSeries(600);
  MiningOptions options;
  options.min_confidence = 0.6;

  InMemorySeriesSource looped_source(&series);
  auto looped = MineMultiPeriodLooped(looped_source, 2, 8, options);
  ASSERT_TRUE(looped.ok()) << looped.status();

  InMemorySeriesSource shared_source(&series);
  auto shared = MineMultiPeriodShared(shared_source, 2, 8, options);
  ASSERT_TRUE(shared.ok()) << shared.status();

  ASSERT_EQ(looped->per_period.size(), shared->per_period.size());
  for (size_t i = 0; i < looped->per_period.size(); ++i) {
    EXPECT_EQ(looped->per_period[i].first, shared->per_period[i].first);
    EXPECT_EQ(AsCountMap(looped->per_period[i].second, series.symbols()),
              AsCountMap(shared->per_period[i].second, series.symbols()))
        << "period " << looped->per_period[i].first;
  }
}

TEST(MultiPeriodTest, SharedUsesTwoScansLoopedUsesTwoPerPeriod) {
  const TimeSeries series = MakeMixedPeriodSeries(300);
  MiningOptions options;
  options.min_confidence = 0.6;

  InMemorySeriesSource looped_source(&series);
  auto looped = MineMultiPeriodLooped(looped_source, 2, 9, options);
  ASSERT_TRUE(looped.ok());
  EXPECT_EQ(looped->total_scans, 2u * 8u);

  InMemorySeriesSource shared_source(&series);
  auto shared = MineMultiPeriodShared(shared_source, 2, 9, options);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->total_scans, 2u);
}

TEST(MultiPeriodTest, EachPeriodMatchesSinglePeriodMining) {
  const TimeSeries series = MakeMixedPeriodSeries(400);
  MiningOptions options;
  options.min_confidence = 0.5;

  InMemorySeriesSource shared_source(&series);
  auto shared = MineMultiPeriodShared(shared_source, 3, 5, options);
  ASSERT_TRUE(shared.ok());

  for (uint32_t period = 3; period <= 5; ++period) {
    InMemorySeriesSource single_source(&series);
    MiningOptions single = options;
    single.period = period;
    auto expected = MineHitSet(single_source, single);
    ASSERT_TRUE(expected.ok());
    const MiningResult* actual = shared->ForPeriod(period);
    ASSERT_NE(actual, nullptr);
    EXPECT_EQ(AsCountMap(*actual, series.symbols()),
              AsCountMap(*expected, series.symbols()))
        << "period " << period;
  }
}

TEST(MultiPeriodTest, FindsPlantedPeriodsOnly) {
  const TimeSeries series = MakeMixedPeriodSeries(1200);
  MiningOptions options;
  options.min_confidence = 0.8;
  InMemorySeriesSource source(&series);
  auto result = MineMultiPeriodShared(source, 2, 6, options);
  ASSERT_TRUE(result.ok());

  // Period 3 must surface the planted p3 pattern.
  const MiningResult* p3 = result->ForPeriod(3);
  ASSERT_NE(p3, nullptr);
  bool found_p3 = false;
  for (const auto& entry : p3->patterns()) {
    if (entry.pattern.HasLetter(1, 0)) found_p3 = true;
  }
  EXPECT_TRUE(found_p3);

  // Period 4 must surface p4 at offset 2.
  const MiningResult* p4 = result->ForPeriod(4);
  ASSERT_NE(p4, nullptr);
  bool found_p4 = false;
  for (const auto& entry : p4->patterns()) {
    if (entry.pattern.HasLetter(2, 1)) found_p4 = true;
  }
  EXPECT_TRUE(found_p4);

  // Period 5 aligns with neither plant: with threshold 0.8 nothing survives.
  const MiningResult* p5 = result->ForPeriod(5);
  ASSERT_NE(p5, nullptr);
  EXPECT_TRUE(p5->empty());
}

TEST(MultiPeriodTest, SinglePeriodRange) {
  const TimeSeries series = MakeMixedPeriodSeries(120);
  MiningOptions options;
  options.min_confidence = 0.6;
  InMemorySeriesSource source(&series);
  auto result = MineMultiPeriodShared(source, 3, 3, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_period.size(), 1u);
  EXPECT_EQ(result->total_scans, 2u);
}

TEST(MultiPeriodTest, InvalidRangesRejected) {
  const TimeSeries series = MakeMixedPeriodSeries(50);
  MiningOptions options;
  InMemorySeriesSource source(&series);
  EXPECT_FALSE(MineMultiPeriodShared(source, 0, 3, options).ok());
  EXPECT_FALSE(MineMultiPeriodShared(source, 5, 3, options).ok());
  EXPECT_FALSE(MineMultiPeriodShared(source, 3, 100, options).ok());
  EXPECT_FALSE(MineMultiPeriodLooped(source, 0, 3, options).ok());
  EXPECT_FALSE(MineMultiPeriodLooped(source, 5, 3, options).ok());
  EXPECT_FALSE(MineMultiPeriodLooped(source, 3, 100, options).ok());
}

TEST(MultiPeriodTest, ForPeriodOutsideRangeIsNull) {
  const TimeSeries series = MakeMixedPeriodSeries(100);
  MiningOptions options;
  options.min_confidence = 0.6;
  InMemorySeriesSource source(&series);
  auto result = MineMultiPeriodShared(source, 3, 4, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ForPeriod(7), nullptr);
}

}  // namespace
}  // namespace ppm
