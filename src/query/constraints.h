#ifndef PPM_QUERY_CONSTRAINTS_H_
#define PPM_QUERY_CONSTRAINTS_H_

#include <cstdint>
#include <vector>

#include "core/miner.h"
#include "core/mining_options.h"
#include "core/mining_result.h"
#include "core/pattern.h"
#include "tsdb/series_source.h"
#include "util/status.h"

namespace ppm::query {

/// Constraint- and query-based mining of partial periodicity (Section 6,
/// discussing Ng et al. [11]): rather than mining everything and grepping,
/// the user states what patterns qualify and the miner exploits the
/// constraints.
///
/// Two constraint classes are handled differently, following the
/// anti-monotone/succinct classification of [11]:
///  * *anti-monotone / succinct* constraints (allowed letters, allowed
///    offset window, maximum letters) are pushed into the mining itself --
///    disallowed letters never enter `C_max`, shrinking every later stage;
///  * *monotone* constraints (required letters, minimum L-length) cannot
///    prune a growing pattern and are applied to the result set.
struct Constraints {
  /// Only letters whose feature is in this set may appear (empty = all).
  std::vector<tsdb::FeatureId> allowed_features;

  /// Only period offsets in `[offset_low, offset_high]` may carry letters.
  /// Defaults cover the whole period.
  uint32_t offset_low = 0;
  uint32_t offset_high = UINT32_MAX;

  /// Reported patterns must contain every one of these letters.
  std::vector<Letter> required_letters;

  /// Reported patterns must have at least this L-length.
  uint32_t min_l_length = 0;

  /// Reported patterns must have at most this many letters (0 = unlimited).
  /// Anti-monotone: pushed into the level cap.
  uint32_t max_letters = 0;

  /// Keep only the `top_k` patterns with the highest confidence (ties by
  /// canonical order); 0 keeps everything. Applied last.
  uint32_t top_k = 0;
};

/// Mines with `options` under `constraints`. `options.letter_filter` and
/// `options.max_letters` are combined with (not replaced by) the
/// constraint pushdowns. Fails on inconsistent constraints (e.g. a required
/// letter outside the allowed window).
Result<MiningResult> MineConstrained(
    tsdb::SeriesSource& source, const MiningOptions& options,
    const Constraints& constraints,
    Algorithm algorithm = Algorithm::kMaxSubpatternHitSet);

/// The post-filter half of `MineConstrained`, exposed for applying the same
/// query to an existing result (e.g. successive queries over one mining
/// run, the "exploratory mining" loop of [11]).
std::vector<FrequentPattern> FilterPatterns(const MiningResult& result,
                                            const Constraints& constraints);

}  // namespace ppm::query

#endif  // PPM_QUERY_CONSTRAINTS_H_
