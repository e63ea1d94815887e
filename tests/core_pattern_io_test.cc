#include "core/pattern_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/miner.h"
#include "tsdb/time_series.h"

namespace ppm {
namespace {

using tsdb::TimeSeries;

TimeSeries MakeSeries(int ab_segments, int a_only_segments) {
  TimeSeries series;
  for (int i = 0; i < ab_segments; ++i) {
    series.AppendNamed({"a"});
    series.AppendNamed({"b"});
  }
  for (int i = 0; i < a_only_segments; ++i) {
    series.AppendNamed({"a"});
    series.AppendEmpty();
  }
  return series;
}

class PatternIoTest : public ::testing::Test {
 protected:
  std::string TempPath() {
    return testing::TempDir() + "/ppm_patterns_test.txt";
  }
  void TearDown() override { std::remove(TempPath().c_str()); }
};

TEST_F(PatternIoTest, RoundTripPreservesEverything) {
  TimeSeries series = MakeSeries(8, 2);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;
  auto mined = Mine(series, options);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->size(), 3u);  // a, b, ab.

  ASSERT_TRUE(WritePatternsFile(*mined, series.symbols(), TempPath()).ok());

  tsdb::SymbolTable fresh;
  auto loaded = ReadPatternsFile(TempPath(), &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), mined->size());
  for (size_t i = 0; i < mined->size(); ++i) {
    EXPECT_EQ(loaded->patterns()[i].count, mined->patterns()[i].count);
    EXPECT_DOUBLE_EQ(loaded->patterns()[i].confidence,
                     mined->patterns()[i].confidence);
    // Compare by formatted text (ids may differ across symbol tables).
    EXPECT_EQ(loaded->patterns()[i].pattern.Format(fresh),
              mined->patterns()[i].pattern.Format(series.symbols()));
  }
}

TEST_F(PatternIoTest, EmptyResultRoundTrips) {
  MiningResult empty;
  tsdb::SymbolTable symbols;
  ASSERT_TRUE(WritePatternsFile(empty, symbols, TempPath()).ok());
  auto loaded = ReadPatternsFile(TempPath(), &symbols);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(PatternIoTest, RejectsUnwritableNames) {
  TimeSeries series;
  series.AppendNamed({"has space"});
  MiningResult result;
  EXPECT_EQ(WritePatternsFile(result, series.symbols(), TempPath()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PatternIoTest, ReadRejectsGarbage) {
  std::ofstream(TempPath()) << "notanumber 0.5 a b\n";
  tsdb::SymbolTable symbols;
  EXPECT_EQ(ReadPatternsFile(TempPath(), &symbols).status().code(),
            StatusCode::kCorruption);

  std::ofstream(TempPath(), std::ios::trunc) << "3 bad a b\n";
  EXPECT_EQ(ReadPatternsFile(TempPath(), &symbols).status().code(),
            StatusCode::kCorruption);

  std::ofstream(TempPath(), std::ios::trunc) << "3\n";
  EXPECT_EQ(ReadPatternsFile(TempPath(), &symbols).status().code(),
            StatusCode::kCorruption);
}

TEST_F(PatternIoTest, ApplyRecountsOnNewSeries) {
  // Mine on a regime where ab holds 80%, apply to one where it holds 30%.
  TimeSeries before = MakeSeries(8, 2);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;
  auto mined = Mine(before, options);
  ASSERT_TRUE(mined.ok());

  // New series shares the symbol table (ids align).
  TimeSeries after;
  after.symbols() = before.symbols();
  for (int i = 0; i < 3; ++i) {
    after.AppendNamed({"a"});
    after.AppendNamed({"b"});
  }
  for (int i = 0; i < 7; ++i) {
    after.AppendNamed({"a"});
    after.AppendEmpty();
  }

  auto applied = ApplyPatterns(*mined, after);
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_EQ(applied->size(), mined->size());
  for (const AppliedPattern& row : *applied) {
    if (row.pattern.LetterCount() == 2) {  // ab
      EXPECT_DOUBLE_EQ(row.old_confidence, 0.8);
      EXPECT_EQ(row.new_count, 3u);
      EXPECT_DOUBLE_EQ(row.new_confidence, 0.3);
    }
    if (row.pattern.LetterCount() == 1 &&
        row.pattern.letters().front().position == 0) {  // a
      EXPECT_DOUBLE_EQ(row.new_confidence, 1.0);
    }
  }
}

TEST_F(PatternIoTest, ApplyRejectsOversizedPeriod) {
  TimeSeries tiny;
  tiny.AppendEmpty(1);
  MiningResult patterns;
  FrequentPattern entry;
  entry.pattern = Pattern(5);
  entry.pattern.AddLetter(0, 0);
  patterns.patterns().push_back(entry);
  EXPECT_FALSE(ApplyPatterns(patterns, tiny).ok());
}

TEST_F(PatternIoTest, MineSaveLoadApplyPipeline) {
  TimeSeries january = MakeSeries(20, 5);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;
  auto mined = Mine(january, options);
  ASSERT_TRUE(mined.ok());
  ASSERT_TRUE(
      WritePatternsFile(*mined, january.symbols(), TempPath()).ok());

  // February: different series; its own symbol table, ids interned on read.
  TimeSeries february;
  for (int i = 0; i < 10; ++i) {
    february.AppendNamed({"a"});
    february.AppendNamed({"b"});
  }
  auto loaded = ReadPatternsFile(TempPath(), &february.symbols());
  ASSERT_TRUE(loaded.ok());
  auto applied = ApplyPatterns(*loaded, february);
  ASSERT_TRUE(applied.ok());
  for (const AppliedPattern& row : *applied) {
    EXPECT_DOUBLE_EQ(row.new_confidence, 1.0);  // ab holds every February day.
  }
}

}  // namespace
}  // namespace ppm
