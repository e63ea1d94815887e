#include "core/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/letter_space.h"
#include "util/bitset.h"
#include "util/random.h"

namespace ppm {
namespace {

using tsdb::SymbolTable;
using tsdb::TimeSeries;

/// The canonical order as first defined, on one `Bitset` per position (the
/// pattern representation before letter lists). Kept as the reference the
/// letter-list and mask comparators must reproduce exactly.
bool ReferenceLess(const Pattern& a, const Pattern& b) {
  if (a.period() != b.period()) return a.period() < b.period();
  std::vector<Bitset> x(a.period()), y(b.period());
  for (const Letter& letter : a.letters()) x[letter.position].Set(letter.feature);
  for (const Letter& letter : b.letters()) y[letter.position].Set(letter.feature);
  for (uint32_t i = 0; i < a.period(); ++i) {
    if (x[i] != y[i]) return x[i] < y[i];
  }
  return false;
}

/// A random pattern: stars, single letters and multi-feature positions,
/// with feature ids on both sides of a 64-bit word boundary.
Pattern RandomPattern(Rng* rng, uint32_t period) {
  Pattern pattern(period);
  for (uint32_t position = 0; position < period; ++position) {
    const uint64_t letters = rng->NextBelow(4);
    for (uint64_t i = 0; i < letters; ++i) {
      pattern.AddLetter(position,
                        static_cast<tsdb::FeatureId>(rng->NextBelow(70)));
    }
  }
  return pattern;
}

/// `base` with one letter added or removed: pairs that share a long prefix.
Pattern NearMiss(Rng* rng, const Pattern& base) {
  Pattern pattern = base;
  if (!base.IsEmpty() && rng->NextBool(0.5)) {
    const Letter& letter = base.letters()[rng->NextBelow(base.LetterCount())];
    pattern.RemoveLetter(letter.position, letter.feature);
  } else {
    pattern.AddLetter(static_cast<uint32_t>(rng->NextBelow(base.period())),
                      static_cast<tsdb::FeatureId>(rng->NextBelow(70)));
  }
  return pattern;
}

TEST(PatternTest, AllStarByDefault) {
  Pattern pattern(4);
  EXPECT_EQ(pattern.period(), 4u);
  EXPECT_EQ(pattern.LLength(), 0u);
  EXPECT_EQ(pattern.LetterCount(), 0u);
  EXPECT_TRUE(pattern.IsEmpty());
  EXPECT_TRUE(pattern.letters().empty());
}

TEST(PatternTest, LLengthVsLetterCount) {
  // Paper's example: a{b,c}*d* is of length 5, L-length 3, 4 letters.
  Pattern pattern(5);
  pattern.AddLetter(0, 0);  // a
  pattern.AddLetter(1, 1);  // b
  pattern.AddLetter(1, 2);  // c
  pattern.AddLetter(3, 3);  // d
  EXPECT_EQ(pattern.LLength(), 3u);
  EXPECT_EQ(pattern.LetterCount(), 4u);
  const std::vector<Letter> expected = {{0, 0}, {1, 1}, {1, 2}, {3, 3}};
  EXPECT_EQ(pattern.letters(), expected);
  EXPECT_TRUE(pattern.HasLetter(1, 2));
  EXPECT_FALSE(pattern.HasLetter(2, 2));
}

TEST(PatternTest, RemoveLetter) {
  Pattern pattern(2);
  pattern.AddLetter(0, 7);
  pattern.RemoveLetter(0, 7);
  EXPECT_TRUE(pattern.IsEmpty());
}

TEST(PatternTest, SubpatternRelation) {
  Pattern big(3);
  big.AddLetter(0, 0);
  big.AddLetter(1, 1);
  big.AddLetter(1, 2);

  Pattern small(3);
  small.AddLetter(1, 1);

  EXPECT_TRUE(small.IsSubpatternOf(big));
  EXPECT_FALSE(big.IsSubpatternOf(small));
  EXPECT_TRUE(big.IsSubpatternOf(big));
  EXPECT_TRUE(Pattern(3).IsSubpatternOf(small));  // All-star below everything.

  Pattern other_period(4);
  EXPECT_FALSE(other_period.IsSubpatternOf(big));
  EXPECT_FALSE(small.IsSubpatternOf(other_period));
}

TEST(PatternTest, MatchesSegment) {
  TimeSeries series;
  series.AppendNamed({"a"});        // t=0
  series.AppendNamed({"b", "c"});   // t=1
  series.AppendNamed({});           // t=2
  series.AppendNamed({"a", "b"});   // t=3 (second segment)
  series.AppendNamed({"b"});        // t=4
  series.AppendNamed({"d"});        // t=5
  const auto a = *series.symbols().Lookup("a");
  const auto b = *series.symbols().Lookup("b");
  const auto c = *series.symbols().Lookup("c");

  Pattern pattern(3);
  pattern.AddLetter(0, a);
  pattern.AddLetter(1, b);
  EXPECT_TRUE(pattern.MatchesSegment(series, 0));
  EXPECT_TRUE(pattern.MatchesSegment(series, 3));

  pattern.AddLetter(1, c);  // Now requires both b and c at offset 1.
  EXPECT_TRUE(pattern.MatchesSegment(series, 0));
  EXPECT_FALSE(pattern.MatchesSegment(series, 3));

  // All-star matches everything.
  EXPECT_TRUE(Pattern(3).MatchesSegment(series, 0));
}

TEST(PatternTest, UnionAndIntersect) {
  Pattern a(3), b(3);
  a.AddLetter(0, 1);
  a.AddLetter(1, 2);
  b.AddLetter(1, 2);
  b.AddLetter(2, 3);

  const Pattern u = a.UnionWith(b);
  EXPECT_EQ(u.LetterCount(), 3u);
  EXPECT_TRUE(a.IsSubpatternOf(u));
  EXPECT_TRUE(b.IsSubpatternOf(u));

  const Pattern i = a.IntersectWith(b);
  EXPECT_EQ(i.LetterCount(), 1u);
  EXPECT_TRUE(i.IsSubpatternOf(a));
  EXPECT_TRUE(i.IsSubpatternOf(b));
  EXPECT_TRUE(i.HasLetter(1, 2));
}

TEST(PatternTest, FormatSingleAndGroupAndStar) {
  SymbolTable symbols;
  const auto a = symbols.Intern("a");
  const auto b1 = symbols.Intern("b1");
  const auto b2 = symbols.Intern("b2");
  const auto d = symbols.Intern("d");

  Pattern pattern(5);
  pattern.AddLetter(0, a);
  pattern.AddLetter(1, b1);
  pattern.AddLetter(1, b2);
  pattern.AddLetter(3, d);
  EXPECT_EQ(pattern.Format(symbols), "a {b1,b2} * d *");
}

TEST(PatternTest, ParseRoundTrip) {
  SymbolTable symbols;
  auto parsed = Pattern::Parse("a {b1,b2} * d *", &symbols);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->period(), 5u);
  EXPECT_EQ(parsed->LetterCount(), 4u);
  EXPECT_EQ(parsed->Format(symbols), "a {b1,b2} * d *");
}

TEST(PatternTest, ParseErrors) {
  SymbolTable symbols;
  EXPECT_FALSE(Pattern::Parse("", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("   ", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("{}", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("{a", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("a}b", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("a,b", &symbols).ok());
}

TEST(PatternTest, ParseSingleStarIsValidEmptyPattern) {
  SymbolTable symbols;
  auto parsed = Pattern::Parse("* * *", &symbols);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->period(), 3u);
  EXPECT_TRUE(parsed->IsEmpty());
}

TEST(PatternTest, EqualityAndHash) {
  Pattern a(3), b(3), c(3);
  a.AddLetter(0, 1);
  b.AddLetter(0, 1);
  c.AddLetter(1, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(PatternHash()(a), PatternHash()(b));

  std::unordered_set<Pattern, PatternHash> set;
  set.insert(a);
  EXPECT_EQ(set.count(b), 1u);
  EXPECT_EQ(set.count(c), 0u);
}

TEST(PatternPropertyTest, FormatParseRoundTripOnRandomPatterns) {
  // Random patterns over random alphabets: Format then Parse must be the
  // identity (given the same symbol table).
  ppm::Rng rng(2025);
  SymbolTable symbols;
  for (int f = 0; f < 12; ++f) symbols.Intern("sym" + std::to_string(f));
  for (int round = 0; round < 200; ++round) {
    const uint32_t period = 1 + static_cast<uint32_t>(rng.NextBelow(8));
    Pattern pattern(period);
    bool nonempty = false;
    for (uint32_t position = 0; position < period; ++position) {
      const int letters = static_cast<int>(rng.NextBelow(3));
      for (int i = 0; i < letters; ++i) {
        pattern.AddLetter(position,
                          static_cast<tsdb::FeatureId>(rng.NextBelow(12)));
        nonempty = true;
      }
    }
    if (!nonempty) pattern.AddLetter(0, 0);
    auto reparsed = Pattern::Parse(pattern.Format(symbols), &symbols);
    ASSERT_TRUE(reparsed.ok()) << pattern.Format(symbols);
    EXPECT_EQ(*reparsed, pattern) << pattern.Format(symbols);
  }
}

TEST(PatternPropertyTest, SubpatternRelationIsPartialOrder) {
  ppm::Rng rng(9);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 20; ++i) {
    Pattern pattern(4);
    for (uint32_t position = 0; position < 4; ++position) {
      if (rng.NextBool(0.5)) {
        pattern.AddLetter(position,
                          static_cast<tsdb::FeatureId>(rng.NextBelow(4)));
      }
    }
    patterns.push_back(std::move(pattern));
  }
  for (const Pattern& a : patterns) {
    EXPECT_TRUE(a.IsSubpatternOf(a));  // Reflexive.
    for (const Pattern& b : patterns) {
      // Antisymmetric.
      if (a.IsSubpatternOf(b) && b.IsSubpatternOf(a)) {
        EXPECT_EQ(a, b);
      }
      for (const Pattern& c : patterns) {
        // Transitive.
        if (a.IsSubpatternOf(b) && b.IsSubpatternOf(c)) {
          EXPECT_TRUE(a.IsSubpatternOf(c));
        }
      }
      // Meet/join interact correctly with the order.
      EXPECT_TRUE(a.IntersectWith(b).IsSubpatternOf(a));
      EXPECT_TRUE(a.IsSubpatternOf(a.UnionWith(b)));
    }
  }
}

TEST(PatternTest, CanonicalOrderIsStrictWeak) {
  std::vector<Pattern> patterns;
  for (uint32_t pos = 0; pos < 3; ++pos) {
    for (uint32_t f = 0; f < 3; ++f) {
      Pattern p(3);
      p.AddLetter(pos, f);
      patterns.push_back(p);
    }
  }
  std::sort(patterns.begin(), patterns.end());
  for (size_t i = 0; i + 1 < patterns.size(); ++i) {
    EXPECT_TRUE(patterns[i] < patterns[i + 1] ||
                patterns[i] == patterns[i + 1]);
    EXPECT_FALSE(patterns[i + 1] < patterns[i]);
  }
  // Shorter periods order first.
  EXPECT_TRUE(Pattern(2) < Pattern(3));
}

TEST(PatternOrderTest, LetterListOrderMatchesReference) {
  Rng rng(20261020);
  for (int round = 0; round < 20000; ++round) {
    const uint32_t period = 1 + static_cast<uint32_t>(rng.NextBelow(5));
    const Pattern a = RandomPattern(&rng, period);
    const Pattern b =
        rng.NextBool(0.2)
            ? RandomPattern(&rng, 1 + static_cast<uint32_t>(rng.NextBelow(5)))
            : (rng.NextBool(0.5) ? NearMiss(&rng, a) : RandomPattern(&rng, period));
    ASSERT_EQ(a < b, ReferenceLess(a, b))
        << "a=" << a.Format(SymbolTable()) << " b=" << b.Format(SymbolTable());
    ASSERT_EQ(b < a, ReferenceLess(b, a));
    ASSERT_EQ(a == b, !ReferenceLess(a, b) && !ReferenceLess(b, a));
  }
}

TEST(PatternOrderTest, MaskOrderMatchesReference) {
  Rng rng(77);
  for (int space_round = 0; space_round < 40; ++space_round) {
    // Up to 6 x 25 letters, so masks often span more than one word.
    const uint32_t period = 1 + static_cast<uint32_t>(rng.NextBelow(6));
    std::vector<Letter> letters;
    for (uint32_t position = 0; position < period; ++position) {
      for (tsdb::FeatureId feature = 0; feature < 70; ++feature) {
        if (rng.NextBool(0.35)) letters.push_back({position, feature});
      }
    }
    const LetterSpace space(period, letters);
    const auto random_mask = [&](double density) {
      Bitset mask(space.size());
      for (uint32_t i = 0; i < space.size(); ++i) {
        if (rng.NextBool(density)) mask.Set(i);
      }
      return mask;
    };
    for (int round = 0; round < 500; ++round) {
      const double density = rng.NextBool(0.5) ? 0.05 : 0.5;
      const Bitset a = random_mask(density);
      Bitset b = rng.NextBool(0.5) ? random_mask(density) : a;
      if (space.size() > 0 && rng.NextBool(0.5)) {
        const uint32_t flip = static_cast<uint32_t>(rng.NextBelow(space.size()));
        if (b.Test(flip)) {
          b.Clear(flip);
        } else {
          b.Set(flip);
        }
      }
      const Pattern pa = space.MaskToPattern(a);
      const Pattern pb = space.MaskToPattern(b);
      ASSERT_EQ(space.MaskLess(a, b), ReferenceLess(pa, pb));
      ASSERT_EQ(space.MaskLess(b, a), ReferenceLess(pb, pa));
    }
  }
}

}  // namespace
}  // namespace ppm
