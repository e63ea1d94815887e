// Parameterized sweeps of the Table 1 generator: across the parameter grid,
// the mined output must contain every planted letter, the planted anchor
// must be frequent and maximal, and independent letters must not conspire
// into unplanted long patterns.

#include <gtest/gtest.h>

#include <string>

#include "core/maximal.h"
#include "core/miner.h"
#include "synth/generator.h"

namespace ppm::synth {
namespace {

struct SweepConfig {
  uint64_t seed;
  uint32_t period;
  uint32_t max_pat_length;
  uint32_t num_f1;
  double anchor_confidence;
};

std::string ConfigName(const ::testing::TestParamInfo<SweepConfig>& info) {
  const SweepConfig& c = info.param;
  return "seed" + std::to_string(c.seed) + "_p" + std::to_string(c.period) +
         "_mpl" + std::to_string(c.max_pat_length) + "_f" +
         std::to_string(c.num_f1);
}

class GeneratorSweepTest : public ::testing::TestWithParam<SweepConfig> {
 protected:
  GeneratorOptions MakeOptions() const {
    const SweepConfig& c = GetParam();
    GeneratorOptions options;
    options.length = 20000;
    options.period = c.period;
    options.max_pat_length = c.max_pat_length;
    options.num_f1 = c.num_f1;
    options.num_features = c.num_f1 + 30;
    options.anchor_confidence = c.anchor_confidence;
    options.independent_confidence = 0.85;
    options.noise_mean = 0.8;
    options.seed = c.seed;
    return options;
  }
};

TEST_P(GeneratorSweepTest, MinedOutputMatchesGroundTruth) {
  auto generated = GenerateSeries(MakeOptions());
  ASSERT_TRUE(generated.ok()) << generated.status();

  MiningOptions mining;
  mining.period = GetParam().period;
  mining.min_confidence = 0.8;
  auto result = Mine(generated->series, mining);
  ASSERT_TRUE(result.ok());

  // Every planted letter is frequent.
  for (const Pattern& letter : generated->planted_letters) {
    EXPECT_NE(result->Find(letter), nullptr)
        << letter.Format(generated->series.symbols());
  }
  // The anchor is frequent with confidence near its target.
  const FrequentPattern* anchor = result->Find(generated->anchor);
  ASSERT_NE(anchor, nullptr);
  EXPECT_NEAR(anchor->confidence, GetParam().anchor_confidence, 0.06);

  // Structural ground truth of the generator:
  //  * anchor letters live at positions < MPL, so a pattern's anchor-letter
  //    projection never exceeds MPL letters, and the anchor itself is the
  //    unique largest such projection;
  //  * independent letters are mutually independent at confidence 0.85, so
  //    any pair of them sits near 0.72 -- far below the 0.8 threshold --
  //    and no frequent pattern may contain two of them. (A single
  //    independent letter riding on the anchor can be frequent when
  //    anchor_conf * 0.85 brushes the threshold; that is legitimate.)
  const uint32_t mpl = GetParam().max_pat_length;
  uint32_t longest_anchor_projection = 0;
  for (const auto& entry : result->patterns()) {
    uint32_t anchor_letters = 0;
    uint32_t independent_letters = 0;
    for (const Letter& letter : entry.pattern.letters()) {
      ++(letter.position < mpl ? anchor_letters : independent_letters);
    }
    EXPECT_LE(anchor_letters, mpl);
    EXPECT_LE(independent_letters, 1u)
        << entry.pattern.Format(generated->series.symbols());
    longest_anchor_projection =
        std::max(longest_anchor_projection, anchor_letters);
  }
  EXPECT_EQ(longest_anchor_projection, mpl);
}

TEST_P(GeneratorSweepTest, DeterministicAcrossCalls) {
  auto a = GenerateSeries(MakeOptions());
  auto b = GenerateSeries(MakeOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->series.length(), b->series.length());
  for (uint64_t t = 0; t < a->series.length(); t += 37) {
    ASSERT_EQ(a->series.at(t), b->series.at(t)) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Grid, GeneratorSweepTest,
    ::testing::Values(SweepConfig{11, 20, 2, 4, 0.9},
                      SweepConfig{12, 20, 4, 8, 0.9},
                      SweepConfig{13, 50, 6, 12, 0.9},
                      SweepConfig{14, 50, 8, 12, 0.85},
                      SweepConfig{15, 50, 10, 12, 0.9},
                      SweepConfig{16, 10, 3, 6, 0.95},
                      SweepConfig{17, 100, 5, 20, 0.9},
                      SweepConfig{18, 25, 12, 16, 0.9}),
    ConfigName);

}  // namespace
}  // namespace ppm::synth
