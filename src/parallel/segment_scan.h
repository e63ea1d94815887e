#ifndef PPM_PARALLEL_SEGMENT_SCAN_H_
#define PPM_PARALLEL_SEGMENT_SCAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tsdb/series_source.h"
#include "tsdb/time_series.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppm::parallel {

/// Reads the first `limit` instants of `source` into memory with a single
/// scan (trace span `materialize`). Fails if the source errors or ends
/// before delivering `limit` instants. Counts as exactly one scan in
/// `source.stats()`.
Result<std::vector<tsdb::FeatureSet>> MaterializePrefix(
    tsdb::SeriesSource& source, uint64_t limit);

/// One whole period segment handed to a pass kernel.
struct Segment {
  /// Private-state slot of the chunk visiting the segment, in
  /// `[0, SegmentScan::num_chunks())`.
  uint32_t chunk = 0;
  /// Index of the segment's period in the driver's period list.
  uint32_t period_index = 0;
  /// The segment's `p` instants, contiguous.
  const tsdb::FeatureSet* instants = nullptr;
};

/// The one driver behind every mining pass (docs/PARALLELISM.md): it walks
/// the whole segments of each period in a list, hands each segment to a
/// pass kernel, and decides how the instants get there.
///
///  * One thread: every pass streams the source with one `StartScan`
///    through a window of at least `p_high` instants, so each segment
///    arrives as a contiguous run. One chunk.
///  * More than one thread: the first pass materializes the covered prefix
///    (the one source scan of the mine). Each pass then splits the instant
///    range into contiguous chunks, one per worker; a segment belongs to the
///    chunk holding its first instant. Every chunk owns private kernel
///    state, folded into chunk 0's in chunk order after the workers join.
///
/// For either mode a pass keeps per-period segment order within a chunk, so
/// results are identical at any thread count and run to run. The driver
/// polls the interrupt every few thousand instants, fails a source that
/// ends before its declared length, records the pass's `<phase>` trace span
/// (plus `<phase>.shard` / `<phase>.merge` and the `ppm.parallel.*` shard
/// metrics when pooled), and records exactly one `ppm.scan.db_passes` per
/// completed pass.
class SegmentScan {
 public:
  /// Called for every whole segment of every period.
  using Kernel = std::function<void(const Segment&)>;
  /// Folds chunk `chunk`'s private state into chunk 0's. Called on the
  /// calling thread for chunks 1.. in order, once all chunks finished.
  using Merge = std::function<void(uint32_t chunk)>;
  /// Extra check run with every interrupt poll on chunk `chunk`'s thread
  /// (e.g. a live memory budget); a non-OK status stops the pass.
  using Poll = std::function<Status(uint32_t chunk)>;
  /// One independent whole-series job over `source` (see `RunTasks`).
  using Task = std::function<Status(tsdb::SeriesSource& source,
                                    uint32_t index)>;

  /// A driver for one mine over the whole segments of each of `periods`
  /// (each in `[1, source.length()]`). `num_threads` follows
  /// `MiningOptions::num_threads` (0 = hardware concurrency).
  SegmentScan(tsdb::SeriesSource& source, std::vector<uint32_t> periods,
              uint32_t num_threads, const Interrupt& interrupt);

  /// The periods passes visit, as given.
  const std::vector<uint32_t>& periods() const { return periods_; }

  /// Number of private-state slots a pass kernel indexes by
  /// `Segment::chunk`: 1 when streaming, up to the worker count otherwise.
  uint32_t num_chunks() const { return static_cast<uint32_t>(chunks_.size()); }

  /// The workers, for the per-candidate derivation; null when streaming.
  ThreadPool* pool() const { return pool_.get(); }

  /// Whole segments of period `period_index` (`m = length / p`).
  uint64_t num_segments(uint32_t period_index) const {
    return num_segments_[period_index];
  }

  /// Runs one pass named `phase`: `kernel` sees every whole segment of every
  /// period exactly once, then `merge` folds the chunks together. On an
  /// interrupt, a failed `poll`, or a source error the partial chunk state
  /// must be discarded; interruptions are recorded in `ppm.fault.*`.
  Status Run(const std::string& phase, const Kernel& kernel,
             const Merge& merge = nullptr, const Poll& poll = nullptr);

  /// Runs `task(source, i)` for `i` in `[0, n)`, each a self-contained
  /// whole-series job (one single-period mine of Algorithm 3.3). Streaming,
  /// the tasks run in order on the driver's source; pooled, they run
  /// concurrently, each on its own in-memory source over the materialized
  /// series. Returns the first failure in index order.
  Status RunTasks(uint32_t n, const Task& task);

 private:
  Status Stream(const Kernel& kernel, const Poll& poll);
  Status Shard(const std::string& phase, const Kernel& kernel,
               const Merge& merge, const Poll& poll);
  /// Interrupt plus `poll` for one chunk.
  Status Check(uint32_t chunk, const Poll& poll) const;

  tsdb::SeriesSource& source_;
  const std::vector<uint32_t> periods_;
  const Interrupt interrupt_;
  std::vector<uint64_t> num_segments_;
  uint32_t period_low_ = 0;
  uint32_t period_high_ = 0;
  /// Instants covered by the longest run of whole segments of any period.
  uint64_t extent_ = 0;
  uint64_t total_segments_ = 0;
  /// Chunk ranges in units of `period_low_` instants.
  std::vector<ThreadPool::Chunk> chunks_;
  std::unique_ptr<ThreadPool> pool_;
  /// The covered prefix (never empty) once a pooled pass materialized it.
  std::vector<tsdb::FeatureSet> instants_;
};

}  // namespace ppm::parallel

#endif  // PPM_PARALLEL_SEGMENT_SCAN_H_
