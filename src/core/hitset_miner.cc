#include "core/hitset_miner.h"

#include <utility>

#include "core/budget.h"
#include "core/derivation.h"
#include "core/fault_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/log.h"

namespace ppm {

namespace {

/// A failed live budget check during scan 2 (the pre-scan prediction is
/// pessimistic, so this fires only when the prediction itself was beaten).
Status HitStoreOverBudget(uint64_t bytes, uint64_t limit) {
  obs::MetricsRegistry::Global().GetCounter("ppm.fault.budget_denials").Inc();
  return Status::ResourceExhausted(
      "hit store grew to " + std::to_string(bytes) +
      " bytes, exceeding memory budget of " + std::to_string(limit) +
      " bytes during the second scan");
}

}  // namespace

Result<std::vector<std::unique_ptr<HitStore>>> RegisterHits(
    parallel::SegmentScan& scan, const std::string& phase,
    const std::vector<F1ScanResult>& f1, const std::vector<HitStoreKind>& kinds,
    const MemoryBudget* budget) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter hits_inserted = registry.GetCounter("ppm.hitset.hits_inserted");
  obs::Counter segments_skipped =
      registry.GetCounter("ppm.hitset.segments_skipped");
  obs::Histogram segment_letters =
      registry.GetHistogram("ppm.hitset.segment_letters");

  // stores[chunk][r] and masks[chunk][r]: chunk-private hit stores and
  // scratch segment masks of period r. Chunk 0's stores are the result.
  const size_t num_periods = f1.size();
  std::vector<std::vector<std::unique_ptr<HitStore>>> stores(
      scan.num_chunks());
  std::vector<std::vector<Bitset>> masks(scan.num_chunks());
  for (uint32_t chunk = 0; chunk < scan.num_chunks(); ++chunk) {
    for (size_t r = 0; r < num_periods; ++r) {
      stores[chunk].push_back(MakeHitStore(kinds[r], f1[r].space.full_mask(),
                                           f1[r].space.size()));
      masks[chunk].emplace_back(f1[r].space.size());
    }
  }
  const bool budgeted = budget != nullptr && !budget->unlimited();
  PPM_RETURN_IF_ERROR(scan.Run(
      phase,
      [&](const parallel::Segment& segment) {
        Bitset& mask = masks[segment.chunk][segment.period_index];
        f1[segment.period_index].space.SegmentMask(segment.instants, &mask);
        const uint32_t letters = mask.Count();
        segment_letters.Observe(letters);
        if (letters >= 2) {
          stores[segment.chunk][segment.period_index]->AddHit(mask);
          hits_inserted.Inc();
        } else {
          segments_skipped.Inc();
        }
      },
      // Stores merge in chunk order, so the merged stores are identical run
      // to run for a fixed thread count.
      [&stores](uint32_t chunk) {
        for (size_t r = 0; r < stores[0].size(); ++r) {
          stores[0][r]->Merge(*stores[chunk][r]);
        }
      },
      [&](uint32_t chunk) {
        if (!budgeted) return Status::OK();
        uint64_t bytes = 0;
        for (const auto& store : stores[chunk]) {
          bytes += store->ApproxMemoryBytes();
        }
        return bytes > budget->limit()
                   ? HitStoreOverBudget(bytes, budget->limit())
                   : Status::OK();
      }));
  if (budgeted) {
    uint64_t bytes = 0;
    for (const auto& store : stores[0]) bytes += store->ApproxMemoryBytes();
    if (bytes > budget->limit()) {
      return HitStoreOverBudget(bytes, budget->limit());
    }
  }
  return std::move(stores[0]);
}

Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options) {
  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.hitset");
  auto& registry = obs::MetricsRegistry::Global();

  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;

  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  parallel::SegmentScan scan(source, {options.period}, options.num_threads,
                             interrupt);

  // Scan 1: frequent 1-patterns and the candidate max-pattern.
  PPM_ASSIGN_OR_RETURN(const std::vector<F1ScanResult> f1s,
                       ScanForF1(scan, "f1_scan", options));
  const F1ScanResult& f1 = f1s[0];
  result.stats().num_f1_letters = f1.space.size();
  result.stats().num_periods = f1.num_periods;

  // Property 3.2 bounds the hit set before it is built; the budget decision
  // may degrade the tree to the hash store (identical patterns) or refuse.
  PPM_ASSIGN_OR_RETURN(
      const BudgetDecision budgeted,
      DecideHitStore(options, f1.num_periods, f1.space.size()));
  MemoryBudget budget(options.memory_budget_bytes);

  // Scan 2: register the maximal hit subpattern of every whole segment.
  PPM_ASSIGN_OR_RETURN(
      const std::vector<std::unique_ptr<HitStore>> stores,
      RegisterHits(scan, "second_scan", f1s, {budgeted.store}, &budget));
  const HitStore& store = *stores[0];
  registry.GetGauge("ppm.resource.hit_store_bytes")
      .Set(store.ApproxMemoryBytes());

  // Derivation: no further series access. The budget keeps accounting for
  // per-level candidate tables on top of the hit store's bytes.
  if (!budget.unlimited()) budget.TryCharge(store.ApproxMemoryBytes());
  const DerivationStats derivation = DeriveFrequentPatterns(
      f1, options.max_letters,
      [&store](const Bitset& mask) { return store.CountSuperpatterns(mask); },
      &result, scan.pool(), interrupt,
      budget.unlimited() ? nullptr : &budget);
  if (!derivation.status.ok()) return RecordFault(derivation.status);

  result.Canonicalize();
  result.stats().candidates_evaluated = derivation.candidates_evaluated;
  result.stats().max_level_reached = derivation.max_level_reached;
  result.stats().hit_store_entries = store.num_entries();
  result.stats().tree_nodes =
      budgeted.store == HitStoreKind::kMaxSubpatternTree ? store.num_units()
                                                         : 0;
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  mine_span.End();
  result.stats().elapsed_seconds = mine_span.ElapsedSeconds();
  registry.GetHistogram("ppm.mine.latency_us")
      .Observe(static_cast<uint64_t>(result.stats().elapsed_seconds * 1e6));
  PPM_LOG(kDebug) << "hit-set mine: " << result.size() << " patterns, |H|="
                  << result.stats().hit_store_entries << ", scans="
                  << result.stats().scans;
  return result;
}

}  // namespace ppm
