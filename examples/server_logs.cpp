// End-to-end pipeline on raw timestamped events: a quarter of synthetic web
// server logs is bucketized into an hourly feature series (the Section 2
// "derivation of the feature series"), a period-suggestion pass narrows the
// candidate periods, the daily period is mined, and windowed re-mining
// shows how the site's behaviour *evolved* mid-quarter (Section 6).
//
//   ./examples/server_logs

#include <cstdio>

#include "analysis/period_suggest.h"
#include "core/miner.h"
#include "etl/bucketizer.h"
#include "etl/event_log.h"
#include "evolve/evolution.h"
#include "util/random.h"

namespace {

constexpr int64_t kHour = 3600;
constexpr int64_t kDay = 86400;
// Monday 2026-01-05 00:00 UTC.
constexpr int64_t kStart = 1767571200;

ppm::etl::EventLog SimulateQuarter(uint64_t seed) {
  ppm::Rng rng(seed);
  ppm::etl::EventLog log;
  const int days = 91;
  for (int day = 0; day < days; ++day) {
    const int64_t midnight = kStart + day * kDay;
    const bool weekday = ppm::etl::DayOfWeek(midnight) < 5;
    for (int hour = 0; hour < 24; ++hour) {
      const int64_t t = midnight + hour * kHour + 60;
      // Nightly batch job at 02:00 every day, all quarter.
      if (hour == 2 && rng.NextBool(0.97)) log.Add(t, "batch_job");
      // Weekday office-hours traffic spike 9..17.
      if (weekday && hour >= 9 && hour <= 17 && rng.NextBool(0.9)) {
        log.Add(t, "high_traffic");
      }
      // Regime change: after day 45 a new cache cron lands at 04:00.
      if (day > 45 && hour == 4 && rng.NextBool(0.95)) {
        log.Add(t, "cache_refresh");
      }
      // Background errors, no periodicity.
      if (rng.NextBool(0.08)) log.Add(t + 120, "error_5xx");
    }
  }
  return log;
}

}  // namespace

int main() {
  using namespace ppm;

  etl::EventLog log = SimulateQuarter(/*seed=*/31);
  log.SortByTime();
  std::printf("raw events: %zu\n", log.size());

  // Hourly feature series, aligned to the hour.
  etl::BucketizeOptions bucketing;
  bucketing.bucket_width = kHour;
  bucketing.origin = kStart;
  auto series = etl::Bucketize(log, bucketing);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  std::printf("hourly instants: %llu\n",
              static_cast<unsigned long long>(series->length()));

  // Which period should we mine? Rank every (period, feature) signal in
  // 2..200 hours, then collapse each feature's harmonics.
  auto suggestions = analysis::SuggestPeriodsPerFeature(*series, 2, 200);
  if (!suggestions.ok()) {
    std::fprintf(stderr, "%s\n", suggestions.status().ToString().c_str());
    return 1;
  }
  const auto fundamentals = analysis::FundamentalPeriods(*suggestions);
  std::printf("\ntop period suggestions (hours, harmonics collapsed):\n");
  for (size_t i = 0; i < 5 && i < fundamentals.size(); ++i) {
    const auto& s = fundamentals[i];
    std::printf("  period=%-4u concentration=%.2f best letter: %s at +%uh\n",
                s.period, s.concentration,
                series->symbols().NameOrPlaceholder(s.feature).c_str(),
                s.position);
  }

  // Mine the daily period.
  MiningOptions options;
  options.period = 24;
  options.min_confidence = 0.85;
  auto daily = Mine(*series, options);
  if (!daily.ok()) {
    std::fprintf(stderr, "%s\n", daily.status().ToString().c_str());
    return 1;
  }
  std::printf("\ndaily patterns (conf >= 0.85):\n");
  for (const FrequentPattern& entry : daily->patterns()) {
    if (entry.pattern.LetterCount() != 1) continue;
    for (const Letter& letter : entry.pattern.letters()) {
      std::printf("  %02u:00 %-14s conf=%.2f\n", letter.position,
                  series->symbols().NameOrPlaceholder(letter.feature).c_str(),
                  entry.confidence);
    }
  }

  // Did the periodic behaviour evolve? Mine ~month-long windows.
  auto windows = evolve::MineWindows(*series, 30 * 24, options);
  if (!windows.ok()) {
    std::fprintf(stderr, "%s\n", windows.status().ToString().c_str());
    return 1;
  }
  std::printf("\nevolution across %zu windows of 30 days:\n", windows->size());
  for (size_t w = 1; w < windows->size(); ++w) {
    const auto diff = evolve::DiffResults((*windows)[w - 1].result,
                                          (*windows)[w].result, 0.1);
    std::printf("  window %zu -> %zu: %zu appeared, %zu vanished, %zu shifted\n",
                w - 1, w, diff.appeared.size(), diff.vanished.size(),
                diff.shifted.size());
    for (const FrequentPattern& entry : diff.appeared) {
      if (entry.pattern.LetterCount() == 1) {
        std::printf("    appeared: %s\n",
                    entry.pattern.Format(series->symbols()).c_str());
      }
    }
  }

  const auto stability = evolve::StabilityReport(*windows);
  std::printf("\nmost stable patterns:\n");
  for (size_t i = 0; i < 3 && i < stability.size(); ++i) {
    std::printf("  present in %u/%zu windows, mean conf %.2f: %s\n",
                stability[i].windows_present, windows->size(),
                stability[i].mean_confidence,
                stability[i].pattern.Format(series->symbols()).c_str());
  }
  return 0;
}
