#ifndef PPM_CORE_MINING_RESULT_H_
#define PPM_CORE_MINING_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "tsdb/symbol_table.h"

namespace ppm {

/// One mined pattern with its support.
struct FrequentPattern {
  Pattern pattern;
  /// Number of whole period segments matching `pattern`.
  uint64_t count = 0;
  /// `count / m` where `m` is the number of whole periods.
  double confidence = 0.0;
};

/// The canonical result order: letter count ascending, then `Pattern`
/// order. Both keys are read straight off the letter lists.
bool CanonicalLess(const FrequentPattern& a, const FrequentPattern& b);

/// Cost accounting for one mining run.
struct MiningStats {
  /// Full scans over the series (the paper's headline metric).
  uint64_t scans = 0;
  /// Instants delivered by the source across all scans.
  uint64_t instants_read = 0;
  /// Candidate patterns whose count was evaluated (levels >= 2).
  uint64_t candidates_evaluated = 0;
  /// Distinct max-subpatterns stored (hit-set miner; 0 otherwise).
  uint64_t hit_store_entries = 0;
  /// Nodes allocated in the max-subpattern tree (tree store only).
  uint64_t tree_nodes = 0;
  /// Frequent 1-pattern count (`|F_1|` = `n_d`, letters of `C_max`).
  uint64_t num_f1_letters = 0;
  /// Number of whole periods `m` in the input.
  uint64_t num_periods = 0;
  /// Deepest letter-count level that produced candidates.
  uint32_t max_level_reached = 0;
  /// Wall time of the mining call, measured by the miner's root `TraceSpan`
  /// (both miners populate it the same way).
  double elapsed_seconds = 0.0;

  /// One flat JSON object with every field above, e.g.
  /// `{"scans":2,"instants_read":12,...,"elapsed_seconds":0.001}`.
  std::string ToJson() const;
};

/// The frequent patterns of one (series, period, threshold) mining run,
/// in canonical order (letter count ascending, then `Pattern` order).
class MiningResult {
 public:
  MiningResult() = default;

  std::vector<FrequentPattern>& patterns() { return patterns_; }
  const std::vector<FrequentPattern>& patterns() const { return patterns_; }

  MiningStats& stats() { return stats_; }
  const MiningStats& stats() const { return stats_; }

  size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }

  /// Pointer to the entry for `pattern`, or null when not frequent.
  const FrequentPattern* Find(const Pattern& pattern) const;

  /// Sorts patterns canonically; miners call this before returning. The
  /// miners already emit in canonical order, so this is normally one O(n)
  /// check; any other permutation is sorted.
  void Canonicalize();

  /// Multi-line dump "pattern  count  confidence" for logs and examples.
  std::string ToString(const tsdb::SymbolTable& symbols) const;

 private:
  std::vector<FrequentPattern> patterns_;
  MiningStats stats_;
};

}  // namespace ppm

#endif  // PPM_CORE_MINING_RESULT_H_
