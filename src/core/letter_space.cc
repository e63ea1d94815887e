#include "core/letter_space.h"

#include <algorithm>

#include "util/check.h"

namespace ppm {

LetterSpace::LetterSpace(uint32_t period, std::vector<Letter> letters)
    : period_(period), letters_(std::move(letters)) {
  PPM_CHECK(std::is_sorted(letters_.begin(), letters_.end()));
  PPM_CHECK(std::adjacent_find(letters_.begin(), letters_.end()) ==
            letters_.end());
  position_begin_.assign(period_ + 1, 0);
  for (uint32_t i = 0; i < letters_.size(); ++i) {
    PPM_CHECK(letters_[i].position < period_);
    full_mask_.Set(i);
  }
  // Bucket boundaries: position_begin_[p] = first letter index at position p.
  uint32_t index = 0;
  for (uint32_t p = 0; p <= period_; ++p) {
    while (index < letters_.size() && letters_[index].position < p) ++index;
    position_begin_[p] = index;
  }
}

Pattern LetterSpace::MaskToPattern(const Bitset& mask) const {
  std::vector<Letter> letters;
  letters.reserve(mask.Count());
  mask.ForEach([&](uint32_t index) {
    PPM_CHECK(index < letters_.size());
    letters.push_back(letters_[index]);
  });
  return Pattern(period_, std::move(letters));
}

bool LetterSpace::MaskLess(const Bitset& a, const Bitset& b) const {
  const uint32_t first = a.FindFirstDifference(b);
  if (first == Bitset::kNoBit) return false;
  PPM_DCHECK(first < letters_.size());
  const uint32_t end = position_begin_[letters_[first].position + 1];
  return b.Test(a.FindLastDifference(b, end));
}

Result<Bitset> LetterSpace::PatternToMask(const Pattern& pattern) const {
  if (pattern.period() != period_) {
    return Status::InvalidArgument("pattern period mismatch");
  }
  Bitset mask(size());
  for (const Letter& letter : pattern.letters()) {
    const uint32_t index = IndexOf(letter.position, letter.feature);
    if (index == Bitset::kNoBit) {
      return Status::NotFound("pattern letter outside letter space");
    }
    mask.Set(index);
  }
  return mask;
}

uint32_t LetterSpace::IndexOf(uint32_t position,
                              tsdb::FeatureId feature) const {
  if (position >= period_) return Bitset::kNoBit;
  const uint32_t begin = position_begin_[position];
  const uint32_t end = position_begin_[position + 1];
  // Letters within a position are sorted by feature id.
  const auto first = letters_.begin() + begin;
  const auto last = letters_.begin() + end;
  const Letter probe{position, feature};
  const auto it = std::lower_bound(first, last, probe);
  if (it == last || !(*it == probe)) return Bitset::kNoBit;
  return static_cast<uint32_t>(it - letters_.begin());
}

void LetterSpace::SegmentMask(const tsdb::FeatureSet* segment,
                              Bitset* out) const {
  out->Reset();
  for (uint32_t p = 0; p < period_; ++p) AccumulatePosition(p, segment[p], out);
}

void LetterSpace::AccumulatePosition(uint32_t position,
                                     const tsdb::FeatureSet& features,
                                     Bitset* mask) const {
  const uint32_t begin = position_begin_[position];
  const uint32_t end = position_begin_[position + 1];
  for (uint32_t i = begin; i < end; ++i) {
    if (features.Test(letters_[i].feature)) mask->Set(i);
  }
}

}  // namespace ppm
