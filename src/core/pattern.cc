#include "core/pattern.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"
#include "util/string_util.h"

namespace ppm {

Pattern::Pattern(uint32_t period, std::vector<Letter> letters)
    : period_(period), letters_(std::move(letters)) {
  PPM_CHECK(std::adjacent_find(letters_.begin(), letters_.end(),
                               [](const Letter& a, const Letter& b) {
                                 return !(a < b);
                               }) == letters_.end());
  PPM_CHECK(letters_.empty() || letters_.back().position < period_);
}

bool Pattern::HasLetter(uint32_t position, tsdb::FeatureId feature) const {
  return std::binary_search(letters_.begin(), letters_.end(),
                            Letter{position, feature});
}

void Pattern::AddLetter(uint32_t position, tsdb::FeatureId feature) {
  PPM_CHECK(position < period_);
  const Letter letter{position, feature};
  const auto it = std::lower_bound(letters_.begin(), letters_.end(), letter);
  if (it == letters_.end() || !(*it == letter)) letters_.insert(it, letter);
}

void Pattern::RemoveLetter(uint32_t position, tsdb::FeatureId feature) {
  const Letter letter{position, feature};
  const auto it = std::lower_bound(letters_.begin(), letters_.end(), letter);
  if (it != letters_.end() && *it == letter) letters_.erase(it);
}

uint32_t Pattern::LLength() const {
  uint32_t count = 0;
  for (size_t i = 0; i < letters_.size(); ++i) {
    if (i == 0 || letters_[i].position != letters_[i - 1].position) ++count;
  }
  return count;
}

bool Pattern::IsSubpatternOf(const Pattern& other) const {
  return period_ == other.period_ &&
         std::includes(other.letters_.begin(), other.letters_.end(),
                       letters_.begin(), letters_.end());
}

bool Pattern::MatchesSegment(const tsdb::TimeSeries& series,
                             uint64_t offset) const {
  PPM_CHECK(offset + period_ <= series.length());
  for (const Letter& letter : letters_) {
    if (!series.at(offset + letter.position).Test(letter.feature)) return false;
  }
  return true;
}

Pattern Pattern::UnionWith(const Pattern& other) const {
  PPM_CHECK(period_ == other.period_);
  Pattern result(period_);
  std::set_union(letters_.begin(), letters_.end(), other.letters_.begin(),
                 other.letters_.end(), std::back_inserter(result.letters_));
  return result;
}

Pattern Pattern::IntersectWith(const Pattern& other) const {
  PPM_CHECK(period_ == other.period_);
  Pattern result(period_);
  std::set_intersection(letters_.begin(), letters_.end(),
                        other.letters_.begin(), other.letters_.end(),
                        std::back_inserter(result.letters_));
  return result;
}

std::string Pattern::Format(const tsdb::SymbolTable& symbols) const {
  std::string out;
  size_t next = 0;
  for (uint32_t i = 0; i < period_; ++i) {
    if (i > 0) out += ' ';
    size_t end = next;
    while (end < letters_.size() && letters_[end].position == i) ++end;
    if (end == next) {
      out += '*';
      continue;
    }
    const bool group = end - next > 1;
    if (group) out += '{';
    for (size_t k = next; k < end; ++k) {
      if (k > next) out += ',';
      out += symbols.NameOrPlaceholder(letters_[k].feature);
    }
    if (group) out += '}';
    next = end;
  }
  return out;
}

Result<Pattern> Pattern::Parse(std::string_view text,
                               tsdb::SymbolTable* symbols) {
  PPM_CHECK(symbols != nullptr);
  const std::vector<std::string> tokens =
      SplitSkipEmpty(StripWhitespace(text), ' ');
  if (tokens.empty()) {
    return Status::InvalidArgument("empty pattern text");
  }
  Pattern pattern(static_cast<uint32_t>(tokens.size()));
  for (uint32_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "*") continue;
    if (token.front() == '{') {
      if (token.size() < 3 || token.back() != '}') {
        return Status::InvalidArgument("malformed position token: " + token);
      }
      const std::string inner = token.substr(1, token.size() - 2);
      const std::vector<std::string> names = SplitSkipEmpty(inner, ',');
      if (names.empty()) {
        return Status::InvalidArgument("empty feature group: " + token);
      }
      for (const std::string& name : names) {
        pattern.AddLetter(i, symbols->Intern(name));
      }
      continue;
    }
    if (token.find_first_of("{},") != std::string::npos) {
      return Status::InvalidArgument("malformed position token: " + token);
    }
    pattern.AddLetter(i, symbols->Intern(token));
  }
  return pattern;
}

size_t Pattern::Hash() const {
  uint64_t h = 1469598103934665603ull ^ period_;
  for (const Letter& letter : letters_) {
    h ^= (uint64_t{letter.position} << 32) | letter.feature;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

bool operator<(const Pattern& a, const Pattern& b) {
  if (a.period_ != b.period_) return a.period_ < b.period_;
  // Merge the two letter lists, visiting only the letters one side lacks,
  // in canonical order. The first such letter names the first position
  // whose feature sets differ; the last one at that position is the highest
  // feature of their symmetric difference, and its holder is the greater.
  auto x = a.letters_.begin();
  auto y = b.letters_.begin();
  const auto x_end = a.letters_.end();
  const auto y_end = b.letters_.end();
  bool found = false;
  uint32_t position = 0;
  bool b_holds_highest = false;
  while (x != x_end || y != y_end) {
    const bool from_a = y == y_end || (x != x_end && *x < *y);
    const bool from_b = !from_a && (x == x_end || *y < *x);
    if (!from_a && !from_b) {  // A shared letter.
      ++x;
      ++y;
      continue;
    }
    const Letter& letter = from_a ? *x++ : *y++;
    if (found && letter.position != position) break;
    found = true;
    position = letter.position;
    b_holds_highest = from_b;
  }
  return b_holds_highest;
}

}  // namespace ppm
