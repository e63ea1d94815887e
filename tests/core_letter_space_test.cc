#include "core/letter_space.h"

#include <gtest/gtest.h>

namespace ppm {
namespace {

LetterSpace MakeFigure1Space() {
  // The paper's Figure 1 setting: C_max = a{b1,b2}*d* over period 5, with
  // features a=0, b1=1, b2=2, d=3.
  return LetterSpace(5, {Letter{0, 0}, Letter{1, 1}, Letter{1, 2}, Letter{3, 3}});
}

TEST(LetterSpaceTest, BasicAccessors) {
  const LetterSpace space = MakeFigure1Space();
  EXPECT_EQ(space.period(), 5u);
  EXPECT_EQ(space.size(), 4u);
  EXPECT_EQ(space.letter(0).position, 0u);
  EXPECT_EQ(space.letter(2).feature, 2u);
  EXPECT_EQ(space.full_mask().Count(), 4u);
}

TEST(LetterSpaceTest, IndexOf) {
  const LetterSpace space = MakeFigure1Space();
  EXPECT_EQ(space.IndexOf(0, 0), 0u);
  EXPECT_EQ(space.IndexOf(1, 1), 1u);
  EXPECT_EQ(space.IndexOf(1, 2), 2u);
  EXPECT_EQ(space.IndexOf(3, 3), 3u);
  EXPECT_EQ(space.IndexOf(1, 0), Bitset::kNoBit);
  EXPECT_EQ(space.IndexOf(2, 0), Bitset::kNoBit);
  EXPECT_EQ(space.IndexOf(7, 0), Bitset::kNoBit);  // Beyond period.
}

TEST(LetterSpaceTest, MaxPattern) {
  const LetterSpace space = MakeFigure1Space();
  const Pattern cmax = space.MaxPattern();
  EXPECT_EQ(cmax.period(), 5u);
  EXPECT_EQ(cmax.LetterCount(), 4u);
  EXPECT_EQ(cmax.LLength(), 3u);
  EXPECT_TRUE(cmax.HasLetter(1, 1));
  EXPECT_TRUE(cmax.HasLetter(1, 2));
}

TEST(LetterSpaceTest, MaskPatternRoundTrip) {
  const LetterSpace space = MakeFigure1Space();
  Bitset mask;
  mask.Set(0);
  mask.Set(2);
  const Pattern pattern = space.MaskToPattern(mask);
  EXPECT_EQ(pattern.LetterCount(), 2u);
  auto back = space.PatternToMask(pattern);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, mask);
}

TEST(LetterSpaceTest, PatternToMaskRejectsForeignLetters) {
  const LetterSpace space = MakeFigure1Space();
  Pattern foreign(5);
  foreign.AddLetter(2, 0);  // Position 2 has no letters in the space.
  EXPECT_EQ(space.PatternToMask(foreign).status().code(), StatusCode::kNotFound);

  Pattern wrong_period(4);
  EXPECT_EQ(space.PatternToMask(wrong_period).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LetterSpaceTest, SegmentMaskIsMaximalHitSubpattern) {
  const LetterSpace space = MakeFigure1Space();
  // Segment (a b1 - d -): the hit is a b1 * d * = letters {0,1,3}.
  std::vector<tsdb::FeatureSet> segment(5);
  segment[0].Set(0);
  segment[1].Set(1);
  segment[3].Set(3);
  Bitset mask;
  space.SegmentMask(segment.data(), &mask);
  Bitset expected;
  expected.Set(0);
  expected.Set(1);
  expected.Set(3);
  EXPECT_EQ(mask, expected);

  // Extra features not in the space are ignored.
  segment[2].Set(9);
  segment[0].Set(5);
  space.SegmentMask(segment.data(), &mask);
  EXPECT_EQ(mask, expected);
}

TEST(LetterSpaceTest, AccumulatePositionMatchesSegmentMask) {
  const LetterSpace space = MakeFigure1Space();
  std::vector<tsdb::FeatureSet> segment(5);
  segment[0].Set(0);
  segment[1].Set(2);
  segment[3].Set(3);

  Bitset whole;
  space.SegmentMask(segment.data(), &whole);

  Bitset incremental(space.size());
  for (uint32_t p = 0; p < 5; ++p) {
    space.AccumulatePosition(p, segment[p], &incremental);
  }
  EXPECT_EQ(whole, incremental);
}

TEST(LetterSpaceTest, EmptySpace) {
  const LetterSpace space(3, {});
  EXPECT_EQ(space.size(), 0u);
  EXPECT_TRUE(space.full_mask().Empty());
  EXPECT_TRUE(space.MaxPattern().IsEmpty());
  std::vector<tsdb::FeatureSet> segment(3);
  segment[0].Set(0);
  Bitset mask;
  space.SegmentMask(segment.data(), &mask);
  EXPECT_TRUE(mask.Empty());
}

TEST(LetterSpaceTest, MultipleLettersPerPosition) {
  const LetterSpace space(2, {Letter{0, 3}, Letter{0, 8}, Letter{1, 3}});
  EXPECT_EQ(space.IndexOf(0, 3), 0u);
  EXPECT_EQ(space.IndexOf(0, 8), 1u);
  EXPECT_EQ(space.IndexOf(1, 3), 2u);

  std::vector<tsdb::FeatureSet> segment(2);
  segment[0].Set(3);
  segment[0].Set(8);
  segment[1].Set(3);
  Bitset mask;
  space.SegmentMask(segment.data(), &mask);
  EXPECT_EQ(mask.Count(), 3u);
}

}  // namespace
}  // namespace ppm
