#include "core/multi_period.h"

#include <memory>
#include <utility>

#include "core/budget.h"
#include "core/derivation.h"
#include "core/f1_scan.h"
#include "core/fault_metrics.h"
#include "core/hit_store.h"
#include "core/hitset_miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/segment_scan.h"
#include "tsdb/series_source.h"
#include "util/log.h"

namespace ppm {

namespace {

/// Checks the period range and, once for the whole range, the options
/// every per-period mine shares.
Status ValidateRange(uint32_t period_low, uint32_t period_high,
                     uint64_t series_length, const MiningOptions& options) {
  if (period_low == 0) {
    return Status::InvalidArgument("period_low must be positive");
  }
  if (period_high < period_low) {
    return Status::InvalidArgument("period_high below period_low");
  }
  if (period_high > series_length) {
    return Status::InvalidArgument("period_high exceeds series length");
  }
  MiningOptions period_options = options;
  period_options.period = period_high;
  return period_options.Validate(series_length);
}

std::vector<uint32_t> PeriodRange(uint32_t period_low, uint32_t period_high) {
  std::vector<uint32_t> periods;
  for (uint32_t period = period_low; period <= period_high; ++period) {
    periods.push_back(period);
  }
  return periods;
}

}  // namespace

const MiningResult* MultiPeriodResult::ForPeriod(uint32_t period) const {
  for (const auto& [p, result] : per_period) {
    if (p == period) return &result;
  }
  return nullptr;
}

Result<MultiPeriodResult> MineMultiPeriodLooped(tsdb::SeriesSource& source,
                                                uint32_t period_low,
                                                uint32_t period_high,
                                                const MiningOptions& options) {
  obs::TraceSpan span =
      obs::Tracer::Global().StartSpan("mine.multi_period.looped");
  PPM_RETURN_IF_ERROR(
      ValidateRange(period_low, period_high, source.length(), options));
  const uint64_t scans_before = source.stats().scans;
  const uint32_t num_ranges = period_high - period_low + 1;

  // One independent single-period mine per period. Each runs at one thread
  // (no nested pools), so per-period results are byte-identical whether
  // the driver runs the mines in turn or side by side.
  parallel::SegmentScan scan(source, PeriodRange(period_low, period_high),
                             options.num_threads, options.interrupt());
  std::vector<MiningResult> mined(num_ranges);
  PPM_RETURN_IF_ERROR(scan.RunTasks(
      num_ranges,
      [&options, &mined, period_low](tsdb::SeriesSource& task_source,
                                     uint32_t r) -> Status {
        const obs::TraceSpan task_span =
            obs::Tracer::Global().StartSpan("multi_period.task");
        MiningOptions period_options = options;
        period_options.period = period_low + r;
        period_options.num_threads = 1;
        PPM_ASSIGN_OR_RETURN(mined[r], MineHitSet(task_source, period_options));
        return Status::OK();
      }));

  MultiPeriodResult result;
  for (uint32_t r = 0; r < num_ranges; ++r) {
    result.per_period.emplace_back(period_low + r, std::move(mined[r]));
  }
  result.total_scans = source.stats().scans - scans_before;
  span.End();
  result.elapsed_seconds = span.ElapsedSeconds();
  PPM_LOG(kDebug) << "multi-period looped mine: periods " << period_low
                  << ".." << period_high << " in " << result.total_scans
                  << " scans";
  return result;
}

Result<MultiPeriodResult> MineMultiPeriodShared(tsdb::SeriesSource& source,
                                                uint32_t period_low,
                                                uint32_t period_high,
                                                const MiningOptions& options) {
  obs::TraceSpan span =
      obs::Tracer::Global().StartSpan("mine.multi_period.shared");
  PPM_RETURN_IF_ERROR(
      ValidateRange(period_low, period_high, source.length(), options));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  const uint64_t scans_before = source.stats().scans;
  const uint32_t num_ranges = period_high - period_low + 1;
  parallel::SegmentScan scan(source, PeriodRange(period_low, period_high),
                             options.num_threads, interrupt);

  // --- Scan 1 (shared): every period's F_1 from one traversal. ---
  PPM_ASSIGN_OR_RETURN(const std::vector<F1ScanResult> f1,
                       ScanForF1(scan, "shared_scan1", options));

  std::vector<HitStoreKind> store_kinds;
  for (uint32_t r = 0; r < num_ranges; ++r) {
    MiningOptions period_options = options;
    period_options.period = period_low + r;
    PPM_ASSIGN_OR_RETURN(const BudgetDecision budgeted,
                         DecideHitStore(period_options, f1[r].num_periods,
                                        f1[r].space.size()));
    store_kinds.push_back(budgeted.store);
  }

  // --- Scan 2 (shared): feed every period's hit store. ---
  PPM_ASSIGN_OR_RETURN(const std::vector<std::unique_ptr<HitStore>> stores,
                       RegisterHits(scan, "shared_scan2", f1, store_kinds));

  // --- Derivation per period (no series access). ---
  MultiPeriodResult result;
  for (uint32_t r = 0; r < num_ranges; ++r) {
    MiningResult mined;
    mined.stats().num_f1_letters = f1[r].space.size();
    mined.stats().num_periods = f1[r].num_periods;
    const HitStore& store = *stores[r];
    const DerivationStats derivation = DeriveFrequentPatterns(
        f1[r], options.max_letters,
        [&store](const Bitset& mask) {
          return store.CountSuperpatterns(mask);
        },
        &mined, scan.pool(), interrupt);
    if (!derivation.status.ok()) return RecordFault(derivation.status);
    mined.Canonicalize();
    mined.stats().candidates_evaluated = derivation.candidates_evaluated;
    mined.stats().max_level_reached = derivation.max_level_reached;
    mined.stats().hit_store_entries = store.num_entries();
    mined.stats().tree_nodes =
        store_kinds[r] == HitStoreKind::kMaxSubpatternTree ? store.num_units()
                                                           : 0;
    result.per_period.emplace_back(period_low + r, std::move(mined));
  }
  result.total_scans = source.stats().scans - scans_before;
  span.End();
  result.elapsed_seconds = span.ElapsedSeconds();
  PPM_LOG(kDebug) << "multi-period shared mine: periods " << period_low << ".."
                  << period_high << " in " << result.total_scans << " scans";
  return result;
}

}  // namespace ppm
