#ifndef PPM_CORE_SCAN_ACCOUNTING_H_
#define PPM_CORE_SCAN_ACCOUNTING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace ppm {

/// Records one logical database pass over the series data.
///
/// A "pass" is an algorithm-level traversal of the time series -- the F1
/// counting scan, the hit-registration scan, or one Apriori level scan --
/// regardless of how the bytes physically arrive (streamed from a file or
/// sharded over an in-memory prefix); `parallel::SegmentScan` records it
/// once per completed mining pass. Physical IO is accounted separately by
/// SeriesSource (`ppm.source.*`), so e.g. a pooled run that materializes
/// the prefix once reports fewer `ppm.source.scans` but the same
/// `ppm.scan.db_passes`. This is the number the paper's Algorithm 3.2
/// bounds at 2 for single-period mining.
///
/// Emits:
///   ppm.scan.db_passes          -- total passes (counter)
///   ppm.scan.passes.<phase>     -- passes of this kind (counter)
///   ppm.scan.instants_scanned   -- instants covered across passes (counter)
///   ppm.scan.segments_scanned   -- period segments covered (counter)
///   ppm.scan.pass_instants      -- per-pass instant count (histogram)
inline void RecordDbPass(std::string_view phase, uint64_t instants,
                         uint64_t segments) {
#ifndef PPM_OBS_DISABLED
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("ppm.scan.db_passes").Inc();
  registry.GetCounter("ppm.scan.passes." + std::string(phase)).Inc();
  registry.GetCounter("ppm.scan.instants_scanned").Inc(instants);
  registry.GetCounter("ppm.scan.segments_scanned").Inc(segments);
  registry.GetHistogram("ppm.scan.pass_instants").Observe(instants);
#else
  (void)phase;
  (void)instants;
  (void)segments;
#endif
}

/// Records the candidate-set size generated at one Apriori/derivation
/// level: a per-level gauge `<prefix>.level_candidates.L<level>` plus the
/// running counter `<prefix>.candidates_total`. These are thread-count
/// invariant and participate in the exact half of the perf gate.
inline void RecordLevelCandidates(std::string_view prefix, uint64_t level,
                                  uint64_t count) {
#ifndef PPM_OBS_DISABLED
  auto& registry = obs::MetricsRegistry::Global();
  registry
      .GetGauge(std::string(prefix) + ".level_candidates.L" +
                std::to_string(level))
      .Set(count);
  registry.GetCounter(std::string(prefix) + ".candidates_total").Inc(count);
#else
  (void)prefix;
  (void)level;
  (void)count;
#endif
}

}  // namespace ppm

#endif  // PPM_CORE_SCAN_ACCOUNTING_H_
