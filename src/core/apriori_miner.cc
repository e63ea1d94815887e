#include "core/apriori_miner.h"

#include <utility>
#include <vector>

#include "core/candidate_gen.h"
#include "core/derivation.h"
#include "core/f1_scan.h"
#include "core/fault_metrics.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/segment_scan.h"
#include "util/cancellation.h"
#include "util/log.h"

namespace ppm {

Result<MiningResult> MineApriori(tsdb::SeriesSource& source,
                                 const MiningOptions& options) {
  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.apriori");
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter level_scans = registry.GetCounter("ppm.apriori.level_scans");
  obs::Counter candidates_counted =
      registry.GetCounter("ppm.apriori.candidates_evaluated");

  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;

  // Scan 1: frequent 1-patterns.
  const Interrupt interrupt = options.interrupt();
  PPM_ASSIGN_OR_RETURN(F1ScanResult f1, ScanForF1(source, options));
  result.stats().num_f1_letters = f1.space.size();
  result.stats().num_periods = f1.num_periods;

  // The level scans stream at one thread whatever `options.num_threads`:
  // Apriori is the reference miner, not a parallel one.
  parallel::SegmentScan scan(source, {options.period}, 1, interrupt);
  Bitset segment_mask(f1.space.size());

  std::vector<LevelEntry> frequent = MakeLevelOne(f1.letter_counts);
  if (!frequent.empty()) result.stats().max_level_reached = 1;
  EmitLevel(f1, frequent, &result);

  // Levels 2..: one scan per level (Step 2 of Algorithm 3.1).
  for (uint32_t level = 2; !frequent.empty(); ++level) {
    if (options.max_letters != 0 && level > options.max_letters) break;
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    std::vector<LevelEntry> candidates = GenerateCandidates(frequent);
    if (candidates.empty()) break;
    result.stats().candidates_evaluated += candidates.size();
    candidates_counted.Inc(candidates.size());
    RecordLevelCandidates("ppm.apriori", level, candidates.size());

    // A candidate is counted in each whole period segment whose letter
    // mask is a superset of the candidate's mask.
    level_scans.Inc();
    PPM_RETURN_IF_ERROR(scan.Run(
        "level_scan", [&f1, &segment_mask,
                       &candidates](const parallel::Segment& segment) {
          f1.space.SegmentMask(segment.instants, &segment_mask);
          for (LevelEntry& candidate : candidates) {
            if (candidate.mask.IsSubsetOf(segment_mask)) ++candidate.count;
          }
        }));

    std::vector<LevelEntry> next;
    for (LevelEntry& candidate : candidates) {
      if (candidate.count >= f1.min_count) next.push_back(std::move(candidate));
    }
    if (!next.empty()) result.stats().max_level_reached = level;
    EmitLevel(f1, next, &result);
    frequent = std::move(next);
  }

  {
    const obs::TraceSpan span = obs::Tracer::Global().StartSpan("mine.result");
    result.Canonicalize();
  }
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  mine_span.End();
  result.stats().elapsed_seconds = mine_span.ElapsedSeconds();
  registry.GetHistogram("ppm.mine.latency_us")
      .Observe(static_cast<uint64_t>(result.stats().elapsed_seconds * 1e6));
  PPM_LOG(kDebug) << "apriori mine: " << result.size() << " patterns, scans="
                  << result.stats().scans;
  return result;
}

}  // namespace ppm
