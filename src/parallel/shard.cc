#include "parallel/shard.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppm::parallel {

ShardTimings ShardedRun(
    ThreadPool* pool, uint64_t n, const std::string& phase,
    const std::function<void(const ThreadPool::Chunk&)>& fn,
    const Interrupt& interrupt) {
  ShardTimings timings;
  if (pool == nullptr) {
    if (n > 0 && !interrupt.ShouldStop()) fn(ThreadPool::Chunk{0, 0, n});
    return timings;
  }
  timings.worker_seconds.assign(pool->size(), 0.0);
  const std::string span_name = phase + ".shard";
  pool->ParallelFor(
      n, [&fn, &timings, &span_name, &interrupt](const ThreadPool::Chunk& c) {
        // Chunks already interrupted never start; the caller re-checks the
        // interrupt after the join and discards the partial state.
        if (interrupt.ShouldStop()) return;
        obs::TraceSpan span = obs::Tracer::Global().StartSpan(span_name);
        fn(c);
        span.End();
        // Chunks are disjoint, so each slot is written by exactly one task.
        timings.worker_seconds[c.index] = span.ElapsedSeconds();
      });
  return timings;
}

void RecordShardMetrics(const ShardTimings& timings) {
  if (timings.worker_seconds.empty()) return;
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter shards = registry.GetCounter("ppm.parallel.shards");
  obs::Histogram busy = registry.GetHistogram("ppm.parallel.worker_busy_us");
  for (const double seconds : timings.worker_seconds) {
    if (seconds <= 0.0) continue;
    shards.Inc();
    busy.Observe(static_cast<uint64_t>(seconds * 1e6));
  }
  registry.GetCounter("ppm.parallel.merge_us")
      .Inc(static_cast<uint64_t>(timings.merge_seconds * 1e6));
}

}  // namespace ppm::parallel
