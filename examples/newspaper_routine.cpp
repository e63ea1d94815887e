// The paper's motivating example (Section 1): "Jim reads the Vancouver Sun
// newspaper from 7:00 to 7:30 every weekday morning but his activities at
// other times do not have much regularity."
//
// We simulate a year of Jim's activity log at a granularity of 4 slots per
// day (morning / noon / evening / night), mine the weekly period (28 slots),
// and also show perturbation-tolerant mining: on some days Jim reads the
// paper at noon instead, which slot enlargement absorbs.
//
//   ./examples/newspaper_routine

#include <cstdio>

#include "core/maximal.h"
#include "core/miner.h"
#include "perturb/perturbation.h"
#include "rules/rules.h"
#include "tsdb/time_series.h"
#include "util/random.h"

namespace {

constexpr uint32_t kSlotsPerDay = 4;
constexpr uint32_t kWeek = 7 * kSlotsPerDay;

ppm::tsdb::TimeSeries SimulateYear(uint64_t seed) {
  ppm::Rng rng(seed);
  ppm::tsdb::TimeSeries series;
  const char* random_acts[] = {"tv", "walk", "phone", "shopping", "nothing"};
  for (int day = 0; day < 364; ++day) {
    const bool weekday = day % 7 < 5;
    // Most weekday mornings Jim makes coffee, and with coffee he almost
    // always reads the Vancouver Sun -- usually in the morning slot,
    // occasionally slipping to noon (the perturbation). Days are
    // independent of each other, so week-spanning conjunctions stay below
    // the mining threshold and the output stays readable.
    const bool coffee = weekday && rng.NextBool(0.88);
    int read_slot = -1;
    if (weekday && rng.NextBool(coffee ? 0.95 : 0.3)) {
      read_slot = rng.NextBool(0.12) ? 1 : 0;
    }
    for (uint32_t slot = 0; slot < kSlotsPerDay; ++slot) {
      ppm::tsdb::FeatureSet acts;
      if (coffee && slot == 0) {
        acts.Set(series.symbols().Intern("coffee"));
      }
      if (static_cast<int>(slot) == read_slot) {
        acts.Set(series.symbols().Intern("sun_paper"));
      }
      // Friday evenings: dinner out, fairly regular.
      if (day % 7 == 4 && slot == 2 && rng.NextBool(0.85)) {
        acts.Set(series.symbols().Intern("dinner_out"));
      }
      // Background noise everywhere.
      if (rng.NextBool(0.5)) {
        acts.Set(series.symbols().Intern(
            random_acts[rng.NextBelow(std::size(random_acts))]));
      }
      series.Append(std::move(acts));
    }
  }
  return series;
}

const char* SlotName(uint32_t offset) {
  static const char* kDays[] = {"Mon", "Tue", "Wed", "Thu",
                                "Fri", "Sat", "Sun"};
  static const char* kSlots[] = {"morning", "noon", "evening", "night"};
  static char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s %s", kDays[offset / kSlotsPerDay],
                kSlots[offset % kSlotsPerDay]);
  return buffer;
}

void PrintPatterns(const ppm::MiningResult& result,
                   const ppm::tsdb::SymbolTable& symbols) {
  for (const ppm::FrequentPattern& entry : ppm::MaximalPatterns(result)) {
    std::printf("  conf=%.2f  letters:", entry.confidence);
    for (const ppm::Letter& letter : entry.pattern.letters()) {
      std::printf(" [%s: %s]", SlotName(letter.position),
                  symbols.NameOrPlaceholder(letter.feature).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  const ppm::tsdb::TimeSeries series = SimulateYear(/*seed=*/20260704);

  ppm::MiningOptions options;
  options.period = kWeek;
  options.min_confidence = 0.8;

  auto strict = ppm::Mine(series, options);
  if (!strict.ok()) {
    std::fprintf(stderr, "%s\n", strict.status().ToString().c_str());
    return 1;
  }
  std::printf("== Weekly maximal patterns (strict slots, conf >= 0.80) ==\n");
  PrintPatterns(*strict, series.symbols());

  // Slot enlargement (Section 6): catch the mornings when the paper slipped
  // to noon.
  auto tolerant = ppm::perturb::MineWithPerturbation(series, options,
                                                     /*half_window=*/1);
  if (!tolerant.ok()) {
    std::fprintf(stderr, "%s\n", tolerant.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\n== With slot enlargement (half-window 1): jittered reads count ==\n");
  PrintPatterns(*tolerant, series.symbols());

  // Periodic association rules: "if X happened earlier in the week, Y
  // follows later in the week". Splits need letters at distinct offsets, so
  // the slot-enlarged result (which has multi-slot patterns) is used.
  auto rules =
      ppm::rules::GenerateRules(*tolerant, /*min_rule_confidence=*/0.9);
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Within-week rules (rule confidence >= 0.90) ==\n");
  int shown = 0;
  for (const auto& rule : *rules) {
    if (shown >= 8) break;
    std::printf("  %s\n", rule.Format(series.symbols()).c_str());
    ++shown;
  }
  if (shown == 0) std::printf("  (no rules above threshold)\n");
  return 0;
}
