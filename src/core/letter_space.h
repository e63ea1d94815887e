#ifndef PPM_CORE_LETTER_SPACE_H_
#define PPM_CORE_LETTER_SPACE_H_

#include <cstdint>
#include <vector>

#include "core/pattern.h"
#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/bitset.h"
#include "util/status.h"

namespace ppm {

/// Canonical indexing of the letters of a candidate max-pattern `C_max`.
///
/// After the first scan finds the frequent 1-patterns `F_1`, every remaining
/// object the miners manipulate -- candidate patterns, period-segment hits,
/// max-subpattern tree nodes -- is a subset of the `n_d = |F_1|` letters of
/// `C_max`. `LetterSpace` assigns those letters dense indices in canonical
/// order (position ascending, then feature id ascending) so such subsets are
/// plain bitmasks, and converts between masks and `Pattern` objects.
class LetterSpace {
 public:
  /// Builds a space over `letters`, which must be sorted canonically and
  /// contain no duplicates with positions `< period`.
  LetterSpace(uint32_t period, std::vector<Letter> letters);

  uint32_t period() const { return period_; }

  /// Number of letters (`n_d`, the non-`*` letter count of `C_max`).
  uint32_t size() const { return static_cast<uint32_t>(letters_.size()); }

  const Letter& letter(uint32_t index) const { return letters_[index]; }
  const std::vector<Letter>& letters() const { return letters_; }

  /// Mask with every letter set (the candidate max-pattern itself).
  const Bitset& full_mask() const { return full_mask_; }

  /// The candidate max-pattern `C_max` as a `Pattern`.
  Pattern MaxPattern() const { return MaskToPattern(full_mask_); }

  /// Converts a letter subset to the pattern it denotes.
  Pattern MaskToPattern(const Bitset& mask) const;

  /// `Pattern::operator<` on the patterns two masks of this space denote,
  /// without building them: the lowest differing letter names the first
  /// differing position, and the highest differing letter at that position
  /// belongs to the greater mask.
  bool MaskLess(const Bitset& a, const Bitset& b) const;

  /// Converts a pattern to its letter mask; fails with `NotFound` when the
  /// pattern uses a letter outside this space, or `InvalidArgument` when the
  /// periods differ.
  Result<Bitset> PatternToMask(const Pattern& pattern) const;

  /// Index of letter `(position, feature)`, or `Bitset::kNoBit` if absent.
  uint32_t IndexOf(uint32_t position, tsdb::FeatureId feature) const;

  /// Computes into `*out` the mask of letters present in a period segment,
  /// i.e. the *maximal hit subpattern* of `C_max` for that segment
  /// (Section 3.1.2). `segment[i]` is the feature set at offset `i`;
  /// `segment` must have at least `period()` elements.
  void SegmentMask(const tsdb::FeatureSet* segment, Bitset* out) const;

  /// Incremental variant for streaming scans: ORs into `*mask` the letters
  /// matched by `features` at period offset `position`.
  void AccumulatePosition(uint32_t position, const tsdb::FeatureSet& features,
                          Bitset* mask) const;

 private:
  uint32_t period_;
  std::vector<Letter> letters_;
  Bitset full_mask_;
  // Letter indices grouped by position: position_begin_[p] .. position_begin_[p+1].
  std::vector<uint32_t> position_begin_;
};

}  // namespace ppm

#endif  // PPM_CORE_LETTER_SPACE_H_
