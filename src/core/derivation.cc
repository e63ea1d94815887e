#include "core/derivation.h"

#include <algorithm>
#include <utility>

#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/shard.h"

namespace ppm {

void EmitLevel(const F1ScanResult& f1, const std::vector<LevelEntry>& level,
               MiningResult* result) {
  const obs::TraceSpan span = obs::Tracer::Global().StartSpan("mine.result");
  std::vector<const LevelEntry*> order;
  order.reserve(level.size());
  for (const LevelEntry& entry : level) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [&f1](const LevelEntry* a, const LevelEntry* b) {
              return f1.space.MaskLess(a->mask, b->mask);
            });
  const double denom = static_cast<double>(f1.num_periods);
  for (const LevelEntry* entry : order) {
    result->patterns().push_back(
        {f1.space.MaskToPattern(entry->mask), entry->count,
         denom > 0 ? static_cast<double>(entry->count) / denom : 0.0});
  }
}

DerivationStats DeriveFrequentPatterns(
    const F1ScanResult& f1, uint32_t max_letters,
    const std::function<uint64_t(const Bitset&)>& count_fn,
    MiningResult* result, ThreadPool* pool, const Interrupt& interrupt,
    MemoryBudget* budget) {
  const obs::TraceSpan span = obs::Tracer::Global().StartSpan("derivation");
  obs::Counter count_queries =
      obs::MetricsRegistry::Global().GetCounter("ppm.derivation.count_queries");
  // Candidates evaluated between interrupt polls within a chunk.
  constexpr uint64_t kCheckStride = 512;
  DerivationStats stats;
  stats.status = interrupt.Check();
  if (!stats.status.ok()) return stats;

  // Level 1: the letters of the space that meet the threshold. For batch
  // mining the space *is* F_1 so nothing is filtered; the streaming miner
  // passes a fixed seeded space whose letters may drift below threshold.
  std::vector<LevelEntry> frequent;
  for (LevelEntry& entry : MakeLevelOne(f1.letter_counts)) {
    if (entry.count >= f1.min_count) frequent.push_back(std::move(entry));
  }
  if (!frequent.empty()) stats.max_level_reached = 1;
  EmitLevel(f1, frequent, result);

  for (uint32_t level = 2; !frequent.empty(); ++level) {
    if (max_letters != 0 && level > max_letters) break;
    stats.status = interrupt.Check();
    if (!stats.status.ok()) return stats;
    std::vector<LevelEntry> candidates = GenerateCandidates(frequent);
    if (candidates.empty()) break;
    RecordLevelCandidates("ppm.derivation", level, candidates.size());

    // Charge the level's candidate table before counting it; a level that
    // does not fit ends the run rather than silently thrashing.
    uint64_t charged = 0;
    if (budget != nullptr) {
      for (const LevelEntry& candidate : candidates) {
        charged += sizeof(LevelEntry) + candidate.mask.ApproxMemoryBytes();
      }
      if (!budget->TryCharge(charged)) {
        obs::MetricsRegistry::Global()
            .GetCounter("ppm.fault.budget_denials")
            .Inc();
        stats.status = Status::ResourceExhausted(
            "derivation level " + std::to_string(level) + " candidate table (" +
            std::to_string(charged) + " bytes) exceeds memory budget");
        return stats;
      }
    }

    // Each chunk writes counts only into its own disjoint slice of
    // `candidates`, so no synchronization is needed, and the filtering
    // below runs in candidate order regardless of scheduling. Workers
    // cannot return a `Status`, so on interruption they drop the rest of
    // their chunk and the interrupt is re-checked after the join.
    parallel::ShardTimings timings = parallel::ShardedRun(
        pool, candidates.size(), "derivation",
        [&candidates, &count_fn, &interrupt](const ThreadPool::Chunk& chunk) {
          for (uint64_t i = chunk.begin; i < chunk.end; ++i) {
            if (i > chunk.begin && (i - chunk.begin) % kCheckStride == 0 &&
                interrupt.ShouldStop()) {
              return;
            }
            candidates[i].count = count_fn(candidates[i].mask);
          }
        },
        interrupt);
    parallel::RecordShardMetrics(timings);
    stats.candidates_evaluated += candidates.size();
    count_queries.Inc(candidates.size());
    stats.status = interrupt.Check();
    if (!stats.status.ok()) {
      if (budget != nullptr) budget->Release(charged);
      return stats;
    }

    std::vector<LevelEntry> next;
    for (LevelEntry& candidate : candidates) {
      if (candidate.count >= f1.min_count) next.push_back(std::move(candidate));
    }
    if (!next.empty()) stats.max_level_reached = level;
    EmitLevel(f1, next, result);
    frequent = std::move(next);
    if (budget != nullptr) budget->Release(charged);
  }
  return stats;
}

}  // namespace ppm
