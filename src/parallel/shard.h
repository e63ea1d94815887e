#ifndef PPM_PARALLEL_SHARD_H_
#define PPM_PARALLEL_SHARD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace ppm::parallel {

/// Wall-clock busy time of each worker over one sharded region, indexed by
/// chunk. Recorded by `ShardedRun` and folded into the global metrics by the
/// calling (main) thread.
struct ShardTimings {
  std::vector<double> worker_seconds;
  double merge_seconds = 0.0;
};

/// Runs `fn(chunk)` over `[0, n)` via `pool->ParallelFor`, wrapping each
/// chunk in a per-worker trace span named `<phase>.shard` and timing it.
/// With no pool, `fn` runs inline over the whole range as one chunk,
/// untraced and untimed.
///
/// Returns per-chunk busy times; after the call (all workers joined) the
/// caller merges per-chunk state in chunk order for deterministic output.
///
/// When `interrupt` fires, chunks that have not started yet are skipped at
/// the dispatch layer (running chunks finish or bail on their own polls).
/// Workers cannot return a `Status`, so the caller must re-check the
/// interrupt after the join and discard the partial per-chunk state.
ShardTimings ShardedRun(ThreadPool* pool, uint64_t n, const std::string& phase,
                        const std::function<void(const ThreadPool::Chunk&)>& fn,
                        const Interrupt& interrupt = Interrupt());

/// Publishes one sharded region's cost model into the global registry:
///   ppm.parallel.shards            counter  chunks executed
///   ppm.parallel.worker_busy_us    histogram  per-chunk busy time
///   ppm.parallel.merge_us          counter  main-thread merge time
/// `timings.merge_seconds` is set by the caller once its merge finished.
/// Inline (pool-less) runs record nothing.
void RecordShardMetrics(const ShardTimings& timings);

}  // namespace ppm::parallel

#endif  // PPM_PARALLEL_SHARD_H_
