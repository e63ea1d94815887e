#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/miner.h"
#include "multilevel/multilevel_miner.h"
#include "multilevel/taxonomy.h"
#include "util/random.h"
#include "tsdb/time_series.h"

namespace ppm::multilevel {
namespace {

using tsdb::TimeSeries;

Taxonomy MakeDrinkTaxonomy() {
  Taxonomy taxonomy;
  EXPECT_TRUE(taxonomy.AddEdge("espresso", "coffee").ok());
  EXPECT_TRUE(taxonomy.AddEdge("latte", "coffee").ok());
  EXPECT_TRUE(taxonomy.AddEdge("coffee", "drink").ok());
  EXPECT_TRUE(taxonomy.AddEdge("green_tea", "tea").ok());
  EXPECT_TRUE(taxonomy.AddEdge("tea", "drink").ok());
  return taxonomy;
}

TEST(TaxonomyTest, ParentAndDepth) {
  const Taxonomy taxonomy = MakeDrinkTaxonomy();
  EXPECT_EQ(taxonomy.ParentOf("espresso"), "coffee");
  EXPECT_EQ(taxonomy.ParentOf("coffee"), "drink");
  EXPECT_EQ(taxonomy.ParentOf("drink"), "");
  EXPECT_EQ(taxonomy.ParentOf("unknown"), "");
  EXPECT_EQ(taxonomy.DepthOf("drink"), 1u);
  EXPECT_EQ(taxonomy.DepthOf("coffee"), 2u);
  EXPECT_EQ(taxonomy.DepthOf("espresso"), 3u);
  EXPECT_EQ(taxonomy.DepthOf("unknown"), 1u);
  EXPECT_EQ(taxonomy.MaxDepth(), 3u);
}

TEST(TaxonomyTest, AncestorAtDepth) {
  const Taxonomy taxonomy = MakeDrinkTaxonomy();
  EXPECT_EQ(taxonomy.AncestorAtDepth("espresso", 1), "drink");
  EXPECT_EQ(taxonomy.AncestorAtDepth("espresso", 2), "coffee");
  EXPECT_EQ(taxonomy.AncestorAtDepth("espresso", 3), "espresso");
  // Nodes already at or above the requested depth pass through.
  EXPECT_EQ(taxonomy.AncestorAtDepth("drink", 2), "drink");
  EXPECT_EQ(taxonomy.AncestorAtDepth("unknown", 1), "unknown");
}

TEST(TaxonomyTest, RejectsCyclesAndConflicts) {
  Taxonomy taxonomy;
  ASSERT_TRUE(taxonomy.AddEdge("a", "b").ok());
  ASSERT_TRUE(taxonomy.AddEdge("b", "c").ok());
  EXPECT_EQ(taxonomy.AddEdge("c", "a").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(taxonomy.AddEdge("x", "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(taxonomy.AddEdge("a", "z").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(taxonomy.AddEdge("a", "b").ok());  // Idempotent.
}

TEST(TaxonomyTest, FromPairs) {
  auto taxonomy = TaxonomyFromPairs({{"fine0", "coarse0"}, {"fine1", "coarse0"}});
  ASSERT_TRUE(taxonomy.ok());
  EXPECT_EQ(taxonomy->ParentOf("fine1"), "coarse0");
  auto bad = TaxonomyFromPairs({{"a", "b"}, {"b", "a"}});
  EXPECT_FALSE(bad.ok());
}

TEST(GeneralizeTest, RewritesFeaturesToAncestors) {
  const Taxonomy taxonomy = MakeDrinkTaxonomy();
  TimeSeries series;
  series.AppendNamed({"espresso", "green_tea"});
  series.AppendNamed({"latte"});

  const TimeSeries level1 = GeneralizeToDepth(series, taxonomy, 1);
  // Both instants collapse to "drink".
  EXPECT_EQ(level1.symbols().size(), 1u);
  EXPECT_EQ(level1.at(0).Count(), 1u);
  EXPECT_TRUE(level1.at(0).Test(*level1.symbols().Lookup("drink")));

  const TimeSeries level2 = GeneralizeToDepth(series, taxonomy, 2);
  EXPECT_TRUE(level2.at(0).Test(*level2.symbols().Lookup("coffee")));
  EXPECT_TRUE(level2.at(0).Test(*level2.symbols().Lookup("tea")));
  EXPECT_TRUE(level2.at(1).Test(*level2.symbols().Lookup("coffee")));
}

/// Daily routine: coffee variant every morning, tea most evenings --
/// specific variants alternate, so "espresso" alone is not frequent at the
/// leaf level in the morning slot, but "coffee" is at level 2.
TimeSeries MakeRoutineSeries(int days) {
  TimeSeries series;
  for (int day = 0; day < days; ++day) {
    series.AppendNamed({day % 2 == 0 ? "espresso" : "latte"});  // Morning.
    series.AppendNamed({"green_tea"});                          // Evening.
  }
  return series;
}

TEST(DrillDownTest, FindsGeneralPatternThenRestrictsSpecifics) {
  const Taxonomy taxonomy = MakeDrinkTaxonomy();
  const TimeSeries series = MakeRoutineSeries(30);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.8;

  auto levels = MineDrillDown(series, taxonomy, options);
  ASSERT_TRUE(levels.ok()) << levels.status();
  ASSERT_EQ(levels->size(), 3u);

  // Depth 1: everything is "drink"; drink@0 and drink@1 frequent.
  const LevelResult& top = (*levels)[0];
  EXPECT_EQ(top.depth, 1u);
  EXPECT_FALSE(top.result.empty());

  // Depth 2: coffee every morning, tea every evening, pair frequent.
  const LevelResult& mid = (*levels)[1];
  auto coffee_morning = Pattern::Parse(
      "coffee tea", const_cast<tsdb::SymbolTable*>(&mid.series.symbols()));
  ASSERT_TRUE(coffee_morning.ok());
  EXPECT_NE(mid.result.Find(*coffee_morning), nullptr);

  // Depth 3: espresso only every other day (conf 0.5 < 0.8): not frequent;
  // green_tea stays frequent.
  const LevelResult& leaf = (*levels)[2];
  bool saw_espresso = false, saw_green_tea = false;
  for (const auto& entry : leaf.result.patterns()) {
    const std::string text = entry.pattern.Format(leaf.series.symbols());
    if (text.find("espresso") != std::string::npos) saw_espresso = true;
    if (text.find("green_tea") != std::string::npos) saw_green_tea = true;
  }
  EXPECT_FALSE(saw_espresso);
  EXPECT_TRUE(saw_green_tea);
}

TEST(DrillDownTest, FilterNeverAdmitsLettersOutsideFrequentParents) {
  const Taxonomy taxonomy = MakeDrinkTaxonomy();
  // Tea only rarely: "tea" not frequent at depth 2, so green_tea must not
  // appear at depth 3 even though it alone would pass the threshold there
  // if mined unrestricted... (it appears in only 20% of segments anyway;
  // here we verify the filter against the mid level explicitly).
  TimeSeries series;
  for (int day = 0; day < 20; ++day) {
    series.AppendNamed({"espresso"});
    if (day % 5 == 0) {
      series.AppendNamed({"green_tea"});
    } else {
      series.AppendEmpty();
    }
  }
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.15;  // green_tea alone would pass (0.2 >= 0.15)…

  auto unrestricted = Mine(series, options);
  ASSERT_TRUE(unrestricted.ok());

  MiningOptions strict = options;
  strict.min_confidence = 0.5;  // …but "tea" fails at depth 2 at 0.5.
  auto levels = MineDrillDown(series, taxonomy, strict);
  ASSERT_TRUE(levels.ok());
  const LevelResult& leaf = (*levels)[2];
  for (const auto& entry : leaf.result.patterns()) {
    EXPECT_EQ(entry.pattern.Format(leaf.series.symbols()).find("tea"),
              std::string::npos);
  }
}

// Property: on random two-level data, the drill-down leaf result is exactly
// the unrestricted leaf mining filtered to letters whose parents were
// frequent one level up (the filter must not change counts, only admission).
TEST(DrillDownPropertyTest, LeafResultMatchesFilteredUnrestrictedMining) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    Taxonomy taxonomy;
    // Parents p0..p2, children c<i>_0, c<i>_1.
    for (int p = 0; p < 3; ++p) {
      for (int c = 0; c < 2; ++c) {
        ASSERT_TRUE(taxonomy
                        .AddEdge("c" + std::to_string(p) + "_" +
                                     std::to_string(c),
                                 "p" + std::to_string(p))
                        .ok());
      }
    }
    TimeSeries series;
    for (int t = 0; t < 200; ++t) {
      tsdb::FeatureSet instant;
      for (int p = 0; p < 3; ++p) {
        const bool aligned = (t % 4) == p;
        if (rng.NextBool(aligned ? 0.8 : 0.1)) {
          const int child = rng.NextBool(0.5) ? 0 : 1;
          instant.Set(series.symbols().Intern(
              "c" + std::to_string(p) + "_" + std::to_string(child)));
        }
      }
      series.Append(std::move(instant));
    }
    MiningOptions options;
    options.period = 4;
    options.min_confidence = 0.3;

    auto levels = MineDrillDown(series, taxonomy, options);
    ASSERT_TRUE(levels.ok());
    ASSERT_EQ(levels->size(), 2u);
    const LevelResult& top = (*levels)[0];
    const LevelResult& leaf = (*levels)[1];

    // Frequent parent letters at depth 1, as (position, name).
    std::set<std::pair<uint32_t, std::string>> frequent_parents;
    for (const auto& entry : top.result.patterns()) {
      if (entry.pattern.LetterCount() != 1) continue;
      for (const Letter& letter : entry.pattern.letters()) {
        frequent_parents.insert(
            {letter.position,
             top.series.symbols().NameOrPlaceholder(letter.feature)});
      }
    }

    // Unrestricted leaf mining, filtered after the fact.
    auto unrestricted = Mine(series, options);
    ASSERT_TRUE(unrestricted.ok());
    std::map<std::string, uint64_t> expected;
    for (const auto& entry : unrestricted->patterns()) {
      bool admitted = true;
      for (const Letter& letter : entry.pattern.letters()) {
        const std::string parent = taxonomy.ParentOf(
            series.symbols().NameOrPlaceholder(letter.feature));
        if (!frequent_parents.contains({letter.position, parent})) {
          admitted = false;
        }
      }
      if (admitted) {
        expected[entry.pattern.Format(series.symbols())] = entry.count;
      }
    }

    std::map<std::string, uint64_t> actual;
    for (const auto& entry : leaf.result.patterns()) {
      actual[entry.pattern.Format(leaf.series.symbols())] = entry.count;
    }
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ppm::multilevel
