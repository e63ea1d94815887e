#include "query/constraints.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace ppm::query {

namespace {

Status ValidateConstraints(const MiningOptions& options,
                           const Constraints& constraints) {
  if (constraints.offset_low > constraints.offset_high) {
    return Status::InvalidArgument("offset_low above offset_high");
  }
  const std::unordered_set<tsdb::FeatureId> allowed(
      constraints.allowed_features.begin(), constraints.allowed_features.end());
  for (const Letter& letter : constraints.required_letters) {
    if (letter.position >= options.period) {
      return Status::InvalidArgument("required letter beyond period");
    }
    if (letter.position < constraints.offset_low ||
        letter.position > constraints.offset_high) {
      return Status::InvalidArgument(
          "required letter outside the allowed offset window");
    }
    if (!allowed.empty() && !allowed.contains(letter.feature)) {
      return Status::InvalidArgument(
          "required letter's feature is not in allowed_features");
    }
  }
  if (constraints.max_letters != 0) {
    const uint64_t required = constraints.required_letters.size();
    if (required > constraints.max_letters) {
      return Status::InvalidArgument(
          "more required letters than max_letters allows");
    }
    if (constraints.min_l_length > constraints.max_letters) {
      return Status::InvalidArgument("min_l_length exceeds max_letters");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<FrequentPattern> FilterPatterns(const MiningResult& result,
                                            const Constraints& constraints) {
  std::vector<FrequentPattern> filtered;
  for (const FrequentPattern& entry : result.patterns()) {
    if (entry.pattern.LLength() < constraints.min_l_length) continue;
    if (constraints.max_letters != 0 &&
        entry.pattern.LetterCount() > constraints.max_letters) {
      continue;
    }
    bool ok = true;
    for (const Letter& letter : constraints.required_letters) {
      if (!entry.pattern.HasLetter(letter.position, letter.feature)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    // Allowed-set and window checks (no-ops when mining already pushed them
    // down; meaningful when filtering a pre-existing result).
    if (!constraints.allowed_features.empty() ||
        constraints.offset_low > 0 || constraints.offset_high != UINT32_MAX) {
      const std::unordered_set<tsdb::FeatureId> allowed(
          constraints.allowed_features.begin(),
          constraints.allowed_features.end());
      for (const Letter& letter : entry.pattern.letters()) {
        if (letter.position < constraints.offset_low ||
            letter.position > constraints.offset_high ||
            (!allowed.empty() && !allowed.contains(letter.feature))) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
    }
    filtered.push_back(entry);
  }

  if (constraints.top_k != 0 && filtered.size() > constraints.top_k) {
    // Canonical order is already stable; pick the k highest confidences.
    std::stable_sort(filtered.begin(), filtered.end(),
                     [](const FrequentPattern& a, const FrequentPattern& b) {
                       return a.confidence > b.confidence;
                     });
    filtered.resize(constraints.top_k);
    std::stable_sort(filtered.begin(), filtered.end(), CanonicalLess);
  }
  return filtered;
}

Result<MiningResult> MineConstrained(tsdb::SeriesSource& source,
                                     const MiningOptions& options,
                                     const Constraints& constraints,
                                     Algorithm algorithm) {
  PPM_RETURN_IF_ERROR(ValidateConstraints(options, constraints));

  // Push down the anti-monotone constraints: letter admissibility composes
  // with any user-supplied filter, and the letter cap takes the tighter of
  // the two.
  MiningOptions pushed = options;
  const std::unordered_set<tsdb::FeatureId> allowed(
      constraints.allowed_features.begin(), constraints.allowed_features.end());
  const auto user_filter = options.letter_filter;
  const uint32_t offset_low = constraints.offset_low;
  const uint32_t offset_high = constraints.offset_high;
  pushed.letter_filter = [allowed, offset_low, offset_high, user_filter](
                             uint32_t position, tsdb::FeatureId feature) {
    if (position < offset_low || position > offset_high) return false;
    if (!allowed.empty() && !allowed.contains(feature)) return false;
    if (user_filter && !user_filter(position, feature)) return false;
    return true;
  };
  if (constraints.max_letters != 0) {
    pushed.max_letters = pushed.max_letters == 0
                             ? constraints.max_letters
                             : std::min(pushed.max_letters,
                                        constraints.max_letters);
  }

  PPM_ASSIGN_OR_RETURN(MiningResult mined, Mine(source, pushed, algorithm));

  // Monotone constraints + top-k on the result set.
  MiningResult result;
  result.stats() = mined.stats();
  result.patterns() = FilterPatterns(mined, constraints);
  return result;
}

}  // namespace ppm::query
