#include "core/f1_scan.h"

#include <utility>

#include "core/fault_metrics.h"
#include "obs/metrics.h"
#include "util/log.h"

namespace ppm {

namespace {

/// Per-position letter counts, dense by feature id (a row grows to the
/// largest feature seen at its position). Walking a row in index order
/// yields letters in canonical (feature ascending) order.
using CountTable = std::vector<std::vector<uint64_t>>;

/// Thresholds and filters a finished count table into an `F1ScanResult`.
F1ScanResult FinishF1(const CountTable& counts, const MiningOptions& options,
                      uint64_t num_periods) {
  F1ScanResult result;
  result.num_periods = num_periods;
  result.min_count = options.EffectiveMinCount(num_periods);

  std::vector<Letter> letters;
  std::vector<uint64_t> letter_counts;
  uint64_t letters_seen = 0;
  for (uint32_t position = 0; position < options.period; ++position) {
    const std::vector<uint64_t>& row = counts[position];
    for (tsdb::FeatureId feature = 0; feature < row.size(); ++feature) {
      const uint64_t count = row[feature];
      if (count > 0) ++letters_seen;
      if (count < result.min_count) continue;
      if (options.letter_filter && !options.letter_filter(position, feature)) {
        continue;
      }
      letters.push_back(Letter{position, feature});
      letter_counts.push_back(count);
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("ppm.f1.letters_seen").Set(letters_seen);
  registry.GetGauge("ppm.f1.letters_frequent").Set(letters.size());
  PPM_LOG(kDebug) << "f1 scan: " << letters.size() << " frequent of "
                  << letters_seen << " seen letters, p=" << options.period
                  << ", m=" << num_periods
                  << ", min_count=" << result.min_count;
  result.space = LetterSpace(options.period, std::move(letters));
  result.letter_counts = std::move(letter_counts);
  return result;
}

}  // namespace

Result<std::vector<F1ScanResult>> ScanForF1(parallel::SegmentScan& scan,
                                            const std::string& phase,
                                            const MiningOptions& options) {
  // counts[chunk][r]: chunk-private letter counts of period r.
  std::vector<std::vector<CountTable>> counts(scan.num_chunks());
  for (std::vector<CountTable>& tables : counts) {
    for (const uint32_t period : scan.periods()) tables.emplace_back(period);
  }
  PPM_RETURN_IF_ERROR(scan.Run(
      phase,
      [&counts](const parallel::Segment& segment) {
        CountTable& table = counts[segment.chunk][segment.period_index];
        for (size_t position = 0; position < table.size(); ++position) {
          std::vector<uint64_t>& row = table[position];
          segment.instants[position].ForEach([&row](uint32_t feature) {
            if (feature >= row.size()) row.resize(feature + 1, 0);
            ++row[feature];
          });
        }
      },
      // Letter counts are additive over disjoint segments, so the merged
      // tables equal a one-chunk count exactly.
      [&counts](uint32_t chunk) {
        for (size_t r = 0; r < counts[0].size(); ++r) {
          for (size_t position = 0; position < counts[0][r].size();
               ++position) {
            std::vector<uint64_t>& into = counts[0][r][position];
            const std::vector<uint64_t>& from = counts[chunk][r][position];
            if (from.size() > into.size()) into.resize(from.size(), 0);
            for (size_t feature = 0; feature < from.size(); ++feature) {
              into[feature] += from[feature];
            }
          }
        }
      }));

  std::vector<F1ScanResult> f1;
  for (uint32_t r = 0; r < scan.periods().size(); ++r) {
    MiningOptions period_options = options;
    period_options.period = scan.periods()[r];
    f1.push_back(
        FinishF1(counts[0][r], period_options, scan.num_segments(r)));
  }
  return f1;
}

Result<F1ScanResult> ScanForF1(tsdb::SeriesSource& source,
                               const MiningOptions& options) {
  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  parallel::SegmentScan scan(source, {options.period}, options.num_threads,
                             interrupt);
  PPM_ASSIGN_OR_RETURN(std::vector<F1ScanResult> f1,
                       ScanForF1(scan, "f1_scan", options));
  return std::move(f1[0]);
}

}  // namespace ppm
