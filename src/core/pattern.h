#ifndef PPM_CORE_PATTERN_H_
#define PPM_CORE_PATTERN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/status.h"

namespace ppm {

/// One letter of a pattern: a feature pinned to a period offset. Letters
/// order canonically by position, then feature id.
struct Letter {
  uint32_t position = 0;
  tsdb::FeatureId feature = 0;

  friend bool operator==(const Letter& a, const Letter& b) {
    return a.position == b.position && a.feature == b.feature;
  }
  friend bool operator<(const Letter& a, const Letter& b) {
    if (a.position != b.position) return a.position < b.position;
    return a.feature < b.feature;
  }
};

/// A partial periodic pattern `s = s_1 ... s_p` (Section 2 of the paper).
///
/// Each of the `p` positions is either the don't-care letter `*` or a
/// non-empty set of features that must all be present at that offset of a
/// matching period segment. The pattern is stored as its period plus the
/// sorted, duplicate-free list of its letters, so every operation below is
/// a walk or merge over that list, never over all `p` positions (except
/// `Format`, which prints each `*`).
///
/// Terminology used throughout the library:
///  * the *L-length* is the number of non-`*` positions ("i-pattern");
///  * a *letter* is one (position, feature) pair; a position holding the set
///    `{b1, b2}` contributes two letters;
///  * `a` is a *subpattern* of `b` (same period) iff every letter of `a` is
///    a letter of `b`.
class Pattern {
 public:
  /// The all-`*` pattern of the given period (period may be zero for a
  /// default-constructed placeholder).
  Pattern() = default;
  explicit Pattern(uint32_t period) : period_(period) {}

  /// The pattern with exactly `letters`, which must be sorted canonically,
  /// duplicate-free, and have positions `< period`.
  Pattern(uint32_t period, std::vector<Letter> letters);

  Pattern(const Pattern&) = default;
  Pattern& operator=(const Pattern&) = default;
  Pattern(Pattern&&) noexcept = default;
  Pattern& operator=(Pattern&&) noexcept = default;

  uint32_t period() const { return period_; }

  /// The letters, sorted by position then feature id.
  const std::vector<Letter>& letters() const { return letters_; }

  /// True iff `feature` is required at `position`.
  bool HasLetter(uint32_t position, tsdb::FeatureId feature) const;

  /// Adds feature `feature` at `position` (position must be `< period()`);
  /// letters may be added in any order.
  void AddLetter(uint32_t position, tsdb::FeatureId feature);

  /// Removes feature `feature` from `position` if present.
  void RemoveLetter(uint32_t position, tsdb::FeatureId feature);

  /// Number of non-`*` positions (the paper's L-length).
  uint32_t LLength() const;

  /// Total number of letters across all positions.
  uint32_t LetterCount() const { return static_cast<uint32_t>(letters_.size()); }

  /// True when every position is `*` (the empty pattern, which is not a
  /// valid pattern per the paper but is a useful algebraic identity).
  bool IsEmpty() const { return letters_.empty(); }

  /// True iff `*this` is a subpattern of `other` (periods must match; returns
  /// false otherwise). Every pattern is a subpattern of itself.
  bool IsSubpatternOf(const Pattern& other) const;

  /// True iff `*this` is true in the period segment of `series` starting at
  /// instant `offset` (caller guarantees `offset + period() <= length`).
  bool MatchesSegment(const tsdb::TimeSeries& series, uint64_t offset) const;

  /// Positionwise union (join) with `other`; periods must match.
  Pattern UnionWith(const Pattern& other) const;

  /// Positionwise intersection (meet) with `other`; periods must match.
  Pattern IntersectWith(const Pattern& other) const;

  /// Human-readable form, e.g. "a {b1,b2} * d *": positions separated by
  /// single spaces; a single-feature position prints the bare name; a
  /// multi-feature position prints "{n1,n2}" with names sorted by id.
  std::string Format(const tsdb::SymbolTable& symbols) const;

  /// Parses the `Format` syntax. New feature names are interned into
  /// `*symbols`. Fails on empty input, empty braces, or malformed tokens.
  static Result<Pattern> Parse(std::string_view text,
                               tsdb::SymbolTable* symbols);

  /// Content hash consistent with `operator==`.
  size_t Hash() const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.period_ == b.period_ && a.letters_ == b.letters_;
  }
  friend bool operator!=(const Pattern& a, const Pattern& b) {
    return !(a == b);
  }

  /// Canonical total order: by period, then position by position, where at
  /// the first position whose feature sets differ the set holding the
  /// highest feature of their symmetric difference is the greater (each
  /// set read as a little-endian number, as `Bitset::operator<` does).
  friend bool operator<(const Pattern& a, const Pattern& b);

 private:
  uint32_t period_ = 0;
  std::vector<Letter> letters_;
};

/// Hash functor for unordered containers keyed by `Pattern`.
struct PatternHash {
  size_t operator()(const Pattern& pattern) const { return pattern.Hash(); }
};

}  // namespace ppm

#endif  // PPM_CORE_PATTERN_H_
