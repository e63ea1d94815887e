#ifndef PPM_CORE_HITSET_MINER_H_
#define PPM_CORE_HITSET_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/mining_options.h"
#include "core/mining_result.h"
#include "parallel/segment_scan.h"
#include "tsdb/series_source.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace ppm {

/// Algorithm 3.2 (max-subpattern hit-set).
///
/// Exactly two scans of the series regardless of pattern length:
///  1. find the frequent 1-patterns `F_1` and form the candidate max-pattern
///     `C_max`;
///  2. for each whole period segment, compute its maximal hit subpattern of
///     `C_max` and register it in a hit store (the max-subpattern tree of
///     Section 4, or a hash table under `HitStoreKind::kHashTable`).
/// The complete frequent pattern set is then derived from the hit counts
/// without touching the series again (Algorithm 4.2).
Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options);

/// The hit-registration pass (scan 2 of Algorithm 3.2) over every period of
/// `scan` at once, named `phase`: registers the maximal hit subpattern of
/// each whole segment of period `r` into a store of kind `kinds[r]` over
/// `f1[r]`'s letters. Hits with fewer than 2 letters carry no information
/// beyond `F_1`'s exact counts and are skipped (Section 3.1.2). A non-null,
/// limited `budget` is checked against the stores' size as they grow.
Result<std::vector<std::unique_ptr<HitStore>>> RegisterHits(
    parallel::SegmentScan& scan, const std::string& phase,
    const std::vector<F1ScanResult>& f1, const std::vector<HitStoreKind>& kinds,
    const MemoryBudget* budget = nullptr);

}  // namespace ppm

#endif  // PPM_CORE_HITSET_MINER_H_
