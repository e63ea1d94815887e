#include "core/maximal_miner.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/budget.h"
#include "core/f1_scan.h"
#include "core/fault_metrics.h"
#include "core/hit_store.h"
#include "core/hitset_miner.h"
#include "obs/trace.h"
#include "parallel/segment_scan.h"
#include "util/cancellation.h"
#include "util/stopwatch.h"

namespace ppm {

namespace {

/// GenMax-style depth-first set-enumeration over the letters of `C_max`,
/// with superset lookahead, using the hit store as a frequency oracle.
/// Polls `interrupt` at every search node and unwinds when it fires; the
/// caller must then discard the partial result.
class MaximalSearch {
 public:
  MaximalSearch(const F1ScanResult& f1, const HitStore& store,
                uint32_t max_letters, const Interrupt& interrupt)
      : f1_(f1), store_(store), max_letters_(max_letters),
        interrupt_(interrupt) {}

  std::vector<std::pair<Bitset, uint64_t>> Run() {
    std::vector<uint32_t> tail;
    tail.reserve(f1_.space.size());
    for (uint32_t letter = 0; letter < f1_.space.size(); ++letter) {
      tail.push_back(letter);
    }
    Explore(Bitset(f1_.space.size()), tail);
    return std::move(maximal_);
  }

  uint64_t oracle_calls() const { return oracle_calls_; }

 private:
  /// Exact frequency count of the pattern `mask` denotes. Hits with fewer
  /// than 2 letters are not stored, so small masks use the scan-1 counts.
  uint64_t Count(const Bitset& mask) {
    const uint32_t letters = mask.Count();
    if (letters == 0) return f1_.num_periods;
    if (letters == 1) return f1_.letter_counts[mask.FindFirst()];
    const auto it = count_memo_.find(mask);
    if (it != count_memo_.end()) return it->second;
    ++oracle_calls_;
    const uint64_t count = store_.CountSuperpatterns(mask);
    count_memo_.emplace(mask, count);
    return count;
  }

  bool IsFrequent(const Bitset& mask) {
    if (max_letters_ != 0 && mask.Count() > max_letters_) return false;
    return Count(mask) >= f1_.min_count;
  }

  bool HasSupersetInMaximal(const Bitset& mask) const {
    for (const auto& [found, count] : maximal_) {
      if (mask.IsSubsetOf(found) && mask != found) return true;
      if (mask == found) return true;
    }
    return false;
  }

  void AddMaximal(const Bitset& mask) {
    if (HasSupersetInMaximal(mask)) return;
    // A later branch can complete a pattern that subsumes an earlier leaf;
    // drop the subsumed entries to keep the set antichain.
    std::erase_if(maximal_, [&mask](const std::pair<Bitset, uint64_t>& entry) {
      return entry.first.IsSubsetOf(mask);
    });
    maximal_.emplace_back(mask, Count(mask));
  }

  void Explore(const Bitset& current, const std::vector<uint32_t>& tail) {
    if (interrupt_.ShouldStop()) return;
    // Lookahead: if the union of this subtree is frequent, it subsumes
    // every other node below -- record it and prune the whole subtree.
    if (!tail.empty()) {
      Bitset all = current;
      for (uint32_t letter : tail) all.Set(letter);
      if (HasSupersetInMaximal(all)) return;  // Subtree already covered.
      if (IsFrequent(all)) {
        AddMaximal(all);
        return;
      }
    }

    // Keep only letters whose one-step extension stays frequent.
    std::vector<uint32_t> viable;
    viable.reserve(tail.size());
    for (uint32_t letter : tail) {
      Bitset child = current;
      child.Set(letter);
      if (IsFrequent(child)) viable.push_back(letter);
    }

    if (viable.empty()) {
      if (!current.Empty()) AddMaximal(current);
      return;
    }
    for (size_t i = 0; i < viable.size(); ++i) {
      Bitset child = current;
      child.Set(viable[i]);
      const std::vector<uint32_t> child_tail(viable.begin() +
                                                 static_cast<long>(i) + 1,
                                             viable.end());
      Explore(child, child_tail);
    }
  }

  const F1ScanResult& f1_;
  const HitStore& store_;
  const uint32_t max_letters_;
  const Interrupt interrupt_;
  std::unordered_map<Bitset, uint64_t, BitsetHash> count_memo_;
  std::vector<std::pair<Bitset, uint64_t>> maximal_;
  uint64_t oracle_calls_ = 0;
};

}  // namespace

Result<MiningResult> MineMaximalHitSet(tsdb::SeriesSource& source,
                                       const MiningOptions& options) {
  Stopwatch stopwatch;
  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;

  const Interrupt interrupt = options.interrupt();
  PPM_ASSIGN_OR_RETURN(F1ScanResult f1, ScanForF1(source, options));
  result.stats().num_f1_letters = f1.space.size();
  result.stats().num_periods = f1.num_periods;

  PPM_ASSIGN_OR_RETURN(
      const BudgetDecision budgeted,
      DecideHitStore(options, f1.num_periods, f1.space.size()));
  // The hit pass streams at one thread whatever `options.num_threads`.
  parallel::SegmentScan scan(source, {options.period}, 1, interrupt);
  PPM_ASSIGN_OR_RETURN(
      const std::vector<std::unique_ptr<HitStore>> stores,
      RegisterHits(scan, "second_scan", {f1}, {budgeted.store}));
  const std::unique_ptr<HitStore>& store = stores[0];

  MaximalSearch search(f1, *store, options.max_letters, interrupt);
  auto maximal = search.Run();
  // The search unwinds quietly on interruption; discard the partial
  // antichain rather than present it as the maximal set.
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  {
    // Canonical order on the masks (letter count, then `MaskLess`) before
    // any pattern is built, so `Canonicalize` finds the result in order.
    const obs::TraceSpan span = obs::Tracer::Global().StartSpan("mine.result");
    std::sort(maximal.begin(), maximal.end(),
              [&f1](const auto& a, const auto& b) {
                const uint32_t la = a.first.Count();
                const uint32_t lb = b.first.Count();
                if (la != lb) return la < lb;
                return f1.space.MaskLess(a.first, b.first);
              });
    const double denom = static_cast<double>(f1.num_periods);
    for (const auto& [mask, count] : maximal) {
      result.patterns().push_back(
          {f1.space.MaskToPattern(mask), count,
           denom > 0 ? static_cast<double>(count) / denom : 0.0});
    }
    result.Canonicalize();
  }
  result.stats().candidates_evaluated = search.oracle_calls();
  result.stats().hit_store_entries = store->num_entries();
  result.stats().tree_nodes =
      budgeted.store == HitStoreKind::kMaxSubpatternTree ? store->num_units()
                                                         : 0;
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  result.stats().elapsed_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace ppm
