// Mining numeric data (Section 6 of the paper): "For mining numerical data,
// such as stock or power consumption fluctuation, one can examine the
// distribution of numerical values in the time-series data and discretize
// them into single- or multiple-level categorical data."
//
// We simulate a year of hourly electric load with a daily shape (overnight
// trough, morning ramp, evening peak) plus noise, discretize it into load
// bands, and mine the daily period. A second pass uses two-level
// discretization and the drill-down miner to refine coarse bands into fine
// ones only where the coarse band is already periodic.
//
//   ./examples/power_consumption

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/miner.h"
#include "discretize/discretizer.h"
#include "multilevel/multilevel_miner.h"
#include "multilevel/taxonomy.h"
#include "util/random.h"

namespace {

std::vector<double> SimulateHourlyLoad(int days, uint64_t seed) {
  ppm::Rng rng(seed);
  std::vector<double> load;
  load.reserve(static_cast<size_t>(days) * 24);
  for (int day = 0; day < days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      // Daily shape: trough ~3am, peak ~7pm.
      const double phase = 2.0 * M_PI * (hour - 7) / 24.0;
      double mw = 600 + 250 * std::sin(phase);
      if (hour >= 18 && hour <= 21) mw += 150;  // Evening peak.
      mw += 60 * rng.NextGaussian();            // Weather / noise.
      load.push_back(mw);
    }
  }
  return load;
}

}  // namespace

int main() {
  const std::vector<double> load = SimulateHourlyLoad(365, /*seed=*/9);

  // --- Single-level mining over 4 Gaussian load bands. ---
  ppm::discretize::DiscretizeOptions disc;
  disc.method = ppm::discretize::BinningMethod::kGaussian;
  disc.num_bins = 4;
  disc.prefix = "load";
  auto series = ppm::discretize::Discretize(load, disc);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }

  ppm::MiningOptions options;
  options.period = 24;
  options.min_confidence = 0.7;
  options.max_letters = 1;  // Per-hour bands; conjunctions are reported below.

  auto result = ppm::Mine(*series, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("== Hourly load bands periodic at the daily period "
              "(conf >= 0.70) ==\n");
  for (const ppm::FrequentPattern& entry : result->patterns()) {
    for (const ppm::Letter& letter : entry.pattern.letters()) {
      std::printf("  %02u:00  %-6s conf=%.2f\n", letter.position,
                  series->symbols().NameOrPlaceholder(letter.feature).c_str(),
                  entry.confidence);
    }
  }

  // --- Two-level drill-down: 2 coarse bands refined into 8 fine bands. ---
  auto multi = ppm::discretize::DiscretizeMultiLevel(
      load, /*coarse_bins=*/2, /*fine_bins=*/8,
      ppm::discretize::BinningMethod::kGaussian, "band");
  if (!multi.ok()) {
    std::fprintf(stderr, "%s\n", multi.status().ToString().c_str());
    return 1;
  }
  auto taxonomy = ppm::multilevel::TaxonomyFromPairs(multi->hierarchy);
  if (!taxonomy.ok()) {
    std::fprintf(stderr, "%s\n", taxonomy.status().ToString().c_str());
    return 1;
  }

  ppm::MiningOptions drill = options;
  drill.min_confidence = 0.75;
  auto levels =
      ppm::multilevel::MineDrillDown(multi->series, *taxonomy, drill);
  if (!levels.ok()) {
    std::fprintf(stderr, "%s\n", levels.status().ToString().c_str());
    return 1;
  }
  for (const ppm::multilevel::LevelResult& level : *levels) {
    size_t letters = 0;
    for (const auto& entry : level.result.patterns()) {
      if (entry.pattern.LetterCount() == 1) ++letters;
    }
    std::printf("\n== Drill-down depth %u: %zu periodic hour/band letters ==\n",
                level.depth, letters);
    int shown = 0;
    for (const auto& entry : level.result.patterns()) {
      if (entry.pattern.LetterCount() != 1 || shown >= 8) continue;
      for (const ppm::Letter& letter : entry.pattern.letters()) {
        if (shown >= 8) break;
        const std::string name =
            level.series.symbols().NameOrPlaceholder(letter.feature);
        // At depth 2 the coarse bands pass through unchanged; list only
        // the letters refined at this depth.
        if (level.depth > 1 && name.find("lo") == std::string::npos) continue;
        std::printf("  %02u:00  %-8s conf=%.2f\n", letter.position,
                    name.c_str(), entry.confidence);
        ++shown;
      }
    }
  }
  return 0;
}
