#ifndef PPM_CORE_F1_SCAN_H_
#define PPM_CORE_F1_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/letter_space.h"
#include "core/mining_options.h"
#include "parallel/segment_scan.h"
#include "tsdb/series_source.h"
#include "util/status.h"

namespace ppm {

/// Output of the first scan (Step 1 of Algorithms 3.1 and 3.2): the frequent
/// 1-patterns `F_1` with their exact counts, packaged as a `LetterSpace`
/// whose full mask is the candidate max-pattern `C_max`.
struct F1ScanResult {
  /// Number of whole periods `m`.
  uint64_t num_periods = 0;
  /// The count threshold applied (see `MiningOptions::EffectiveMinCount`).
  uint64_t min_count = 0;
  /// Canonical indexing of the frequent letters.
  LetterSpace space{0, {}};
  /// Exact frequency count of each letter, indexed like `space`.
  std::vector<uint64_t> letter_counts;
};

/// Scans `source` once, counting each (position, feature) letter over whole
/// period segments, and keeps the letters whose count meets the threshold.
///
/// Honors `options.letter_filter` (filtered letters are dropped regardless
/// of count). Fails when `options` are invalid for the source length or on
/// source I/O errors. The scan goes through a `parallel::SegmentScan` with
/// `options.num_threads` workers; the letter counts -- and therefore the
/// resulting `F_1` -- are identical at any thread count.
Result<F1ScanResult> ScanForF1(tsdb::SeriesSource& source,
                               const MiningOptions& options);

/// The first-scan pass over every period of `scan` at once, named `phase`:
/// one `F_1` per period, in the driver's period order. `options` must be
/// validated; its `period` is replaced by each period in turn.
Result<std::vector<F1ScanResult>> ScanForF1(parallel::SegmentScan& scan,
                                            const std::string& phase,
                                            const MiningOptions& options);

}  // namespace ppm

#endif  // PPM_CORE_F1_SCAN_H_
