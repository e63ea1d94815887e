#include "rules/rules.h"

#include <gtest/gtest.h>

#include "core/miner.h"
#include "tsdb/time_series.h"
#include "util/random.h"

namespace ppm::rules {
namespace {

using tsdb::TimeSeries;

/// Period-3 series, 4 segments: (a b -) (a b -) (a - -) (a b c).
/// counts: a@0=4, b@1=3, c@2=1, ab=3, abc=1.
TimeSeries MakeRuleSeries() {
  TimeSeries series;
  const char* grid[4][3] = {
      {"a", "b", ""}, {"a", "b", ""}, {"a", "", ""}, {"a", "b", "c"}};
  for (const auto& segment : grid) {
    for (const char* name : segment) {
      if (*name) {
        series.AppendNamed({name});
      } else {
        series.AppendEmpty();
      }
    }
  }
  return series;
}

TEST(RulesTest, GeneratesSplitRulesWithCorrectConfidence) {
  TimeSeries series = MakeRuleSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto mined = Mine(series, options);
  ASSERT_TRUE(mined.ok());
  // Frequent: a(4), b(3), ab(3).

  auto rules = GenerateRules(*mined, 0.0);
  ASSERT_TRUE(rules.ok()) << rules.status();
  // Only ab has L-length 2; single split after position 0: a => b.
  ASSERT_EQ(rules->size(), 1u);
  const PeriodicRule& rule = (*rules)[0];
  EXPECT_EQ(rule.support_count, 3u);
  EXPECT_DOUBLE_EQ(rule.rule_confidence, 3.0 / 4.0);  // count(ab)/count(a).
  EXPECT_DOUBLE_EQ(rule.pattern_confidence, 3.0 / 4.0);
  EXPECT_EQ(rule.antecedent.Format(series.symbols()), "a * *");
  EXPECT_EQ(rule.consequent.Format(series.symbols()), "* b *");
}

TEST(RulesTest, MinRuleConfidenceFilters) {
  TimeSeries series = MakeRuleSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto mined = Mine(series, options);
  ASSERT_TRUE(mined.ok());

  auto strict = GenerateRules(*mined, 0.8);
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->empty());  // 0.75 < 0.8.

  auto loose = GenerateRules(*mined, 0.75);
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose->size(), 1u);
}

TEST(RulesTest, ThreeLetterPatternYieldsTwoSplits) {
  TimeSeries series;
  // (x y z) in every one of 4 segments.
  for (int i = 0; i < 4; ++i) {
    series.AppendNamed({"x"});
    series.AppendNamed({"y"});
    series.AppendNamed({"z"});
  }
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 1.0;
  auto mined = Mine(series, options);
  ASSERT_TRUE(mined.ok());

  auto rules = GenerateRules(*mined, 0.0);
  ASSERT_TRUE(rules.ok());
  // Patterns with L-length >= 2: xy, xz, yz, xyz.
  //  xy: split after 0 -> x => y.
  //  xz: split after 0 -> x => z.
  //  yz: split after 1 -> y => z.
  //  xyz: splits after 0 and 1 -> x => yz, xy => z.
  EXPECT_EQ(rules->size(), 5u);
  for (const PeriodicRule& rule : *rules) {
    EXPECT_DOUBLE_EQ(rule.rule_confidence, 1.0);
    EXPECT_DOUBLE_EQ(rule.pattern_confidence, 1.0);
    EXPECT_FALSE(rule.antecedent.IsEmpty());
    EXPECT_FALSE(rule.consequent.IsEmpty());
  }
}

TEST(RulesTest, PerfectRulesFilter) {
  TimeSeries series;
  // x always, y in 3 of 4 segments.
  for (int i = 0; i < 4; ++i) {
    series.AppendNamed({"x"});
    if (i < 3) {
      series.AppendNamed({"y"});
    } else {
      series.AppendEmpty();
    }
  }
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;
  auto mined = Mine(series, options);
  ASSERT_TRUE(mined.ok());
  auto rules = GenerateRules(*mined, 0.0);
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 1u);  // x => y with pattern confidence 0.75.
  EXPECT_TRUE(PerfectRules(*rules).empty());

  // Make y perfect too.
  TimeSeries perfect_series;
  for (int i = 0; i < 4; ++i) {
    perfect_series.AppendNamed({"x"});
    perfect_series.AppendNamed({"y"});
  }
  auto perfect_mined = Mine(perfect_series, options);
  ASSERT_TRUE(perfect_mined.ok());
  auto perfect_rules = GenerateRules(*perfect_mined, 0.0);
  ASSERT_TRUE(perfect_rules.ok());
  EXPECT_EQ(PerfectRules(*perfect_rules).size(), 1u);
}

TEST(RulesTest, FormatIsReadable) {
  TimeSeries series = MakeRuleSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto mined = Mine(series, options);
  ASSERT_TRUE(mined.ok());
  auto rules = GenerateRules(*mined, 0.0);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  const std::string text = (*rules)[0].Format(series.symbols());
  EXPECT_NE(text.find("=>"), std::string::npos);
  EXPECT_NE(text.find("conf="), std::string::npos);
}

TEST(RulesTest, RejectsBadThreshold) {
  MiningResult empty;
  EXPECT_FALSE(GenerateRules(empty, -0.1).ok());
  EXPECT_FALSE(GenerateRules(empty, 1.1).ok());
  auto ok = GenerateRules(empty, 0.5);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->empty());
}

// Property: on random inputs, every generated rule's numbers must be
// self-consistent with the mining result it came from, and the rule's two
// sides must partition the source pattern at a position boundary.
TEST(RulesPropertyTest, RulesConsistentWithMinedCounts) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    TimeSeries series;
    series.symbols().Intern("x");
    series.symbols().Intern("y");
    series.symbols().Intern("z");
    for (int t = 0; t < 240; ++t) {
      tsdb::FeatureSet instant;
      for (uint32_t f = 0; f < 3; ++f) {
        const bool aligned = (static_cast<uint32_t>(t) % 4) == f;
        if (rng.NextBool(aligned ? 0.85 : 0.2)) instant.Set(f);
      }
      series.Append(std::move(instant));
    }
    MiningOptions options;
    options.period = 4;
    options.min_confidence = 0.4;
    auto mined = Mine(series, options);
    ASSERT_TRUE(mined.ok());
    auto rules = GenerateRules(*mined, 0.0);
    ASSERT_TRUE(rules.ok());

    for (const PeriodicRule& rule : *rules) {
      const Pattern combined = rule.antecedent.UnionWith(rule.consequent);
      const FrequentPattern* whole = mined->Find(combined);
      const FrequentPattern* antecedent = mined->Find(rule.antecedent);
      ASSERT_NE(whole, nullptr);
      ASSERT_NE(antecedent, nullptr);
      EXPECT_EQ(rule.support_count, whole->count);
      EXPECT_DOUBLE_EQ(rule.rule_confidence,
                       static_cast<double>(whole->count) /
                           static_cast<double>(antecedent->count));
      EXPECT_DOUBLE_EQ(rule.pattern_confidence, whole->confidence);
      EXPECT_LE(rule.rule_confidence, 1.0);
      // Temporal split: every antecedent letter precedes every consequent
      // letter.
      ASSERT_FALSE(rule.antecedent.IsEmpty());
      ASSERT_FALSE(rule.consequent.IsEmpty());
      EXPECT_LT(rule.antecedent.letters().back().position,
                rule.consequent.letters().front().position);
    }
  }
}

TEST(RulesTest, InconsistentResultReportsInternal) {
  // A result claiming ab frequent without a being present violates the
  // Apriori property; rule generation must fail loudly, not divide by zero.
  MiningResult bogus;
  Pattern ab(2);
  ab.AddLetter(0, 0);
  ab.AddLetter(1, 1);
  FrequentPattern entry;
  entry.pattern = ab;
  entry.count = 3;
  entry.confidence = 0.75;
  bogus.patterns().push_back(entry);
  auto rules = GenerateRules(bogus, 0.0);
  EXPECT_EQ(rules.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ppm::rules
