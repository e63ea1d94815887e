// Multi-dimensional, query-constrained mining on retail data: daily
// observations along three dimensions (promotion, sales level, weather) are
// combined into one feature series and mined at the weekly period. Shows
//  * cross-dimensional patterns ("promo Friday -> high sales Saturday"),
//  * constraint pushdown: ask only about the weekend offsets, top-k,
//  * periodic rules across the week.
//
//   ./examples/retail_weekly

#include <cstdio>
#include <vector>

#include "multidim/multidim.h"
#include "query/constraints.h"
#include "rules/rules.h"
#include "tsdb/series_source.h"
#include "util/random.h"

namespace {

const char* kDayNames[7] = {"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};

void PrintPattern(const ppm::Pattern& pattern,
                  const ppm::tsdb::SymbolTable& symbols, double confidence) {
  std::printf("  conf=%.2f ", confidence);
  for (const ppm::Letter& letter : pattern.letters()) {
    std::printf(" [%s %s]", kDayNames[letter.position],
                symbols.NameOrPlaceholder(letter.feature).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace ppm;

  // Two years of daily data.
  Rng rng(7);
  const int weeks = 104;
  std::vector<std::string> promo(weeks * 7), sales(weeks * 7),
      weather(weeks * 7);
  for (int week = 0; week < weeks; ++week) {
    // The chain runs a Friday promotion most weeks.
    const bool promo_week = rng.NextBool(0.9);
    for (int day = 0; day < 7; ++day) {
      const int t = week * 7 + day;
      promo[t] = promo_week && day == 4 ? "flyer" : "";
      // Sales: high on weekends, boosted Saturday after a Friday flyer.
      double high_probability = day >= 5 ? 0.5 : 0.2;
      if (day == 5 && promo_week) high_probability = 0.96;
      sales[t] = rng.NextBool(high_probability) ? "high" : "normal";
      weather[t] = rng.NextBool(0.3) ? "rain" : "dry";
    }
  }

  multidim::DimensionedSeriesBuilder builder;
  if (!builder.AddDimension("promo", promo).ok() ||
      !builder.AddDimension("sales", sales).ok() ||
      !builder.AddDimension("weather", weather).ok()) {
    std::fprintf(stderr, "builder failed\n");
    return 1;
  }
  auto series = builder.Build();
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }

  MiningOptions options;
  options.period = 7;
  options.min_confidence = 0.75;
  options.max_letters = 3;

  auto result = Mine(*series, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("weekly patterns: %zu (m = %llu weeks)\n", result->size(),
              static_cast<unsigned long long>(result->stats().num_periods));

  std::printf("\n== Cross-dimensional patterns (>= 2 dimensions) ==\n");
  for (const FrequentPattern& entry :
       multidim::CrossDimensionalPatterns(*result, series->symbols())) {
    PrintPattern(entry.pattern, series->symbols(), entry.confidence);
  }

  // Query: "what happens on the weekend?" -- offsets 5..6 only, top 5.
  query::Constraints weekend;
  weekend.offset_low = 5;
  weekend.offset_high = 6;
  weekend.top_k = 5;
  tsdb::InMemorySeriesSource source(&*series);
  auto weekend_result = query::MineConstrained(source, options, weekend);
  if (!weekend_result.ok()) {
    std::fprintf(stderr, "%s\n", weekend_result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Weekend-only query (top 5 by confidence) ==\n");
  for (const FrequentPattern& entry : weekend_result->patterns()) {
    PrintPattern(entry.pattern, series->symbols(), entry.confidence);
  }

  // Rules: earlier week => later week.
  auto rules = rules::GenerateRules(*result, 0.85);
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Weekly rules (rule conf >= 0.85) ==\n");
  int shown = 0;
  for (const auto& rule : *rules) {
    if (multidim::DimensionCount(rule.antecedent.UnionWith(rule.consequent),
                                 series->symbols()) < 2) {
      continue;  // Only the cross-dimension rules are interesting here.
    }
    if (++shown > 6) break;
    std::printf("  %s\n", rule.Format(series->symbols()).c_str());
  }
  if (shown == 0) std::printf("  (none)\n");
  return 0;
}
