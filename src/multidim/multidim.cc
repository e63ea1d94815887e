#include "multidim/multidim.h"

#include <set>

namespace ppm::multidim {

Status DimensionedSeriesBuilder::AddDimension(
    std::string_view name, const std::vector<std::string>& values) {
  if (name.empty()) return Status::InvalidArgument("empty dimension name");
  if (name.find(kDimensionSeparator) != std::string_view::npos) {
    return Status::InvalidArgument("dimension name contains ':': " +
                                   std::string(name));
  }
  for (const std::string& existing : names_) {
    if (existing == name) {
      return Status::AlreadyExists("duplicate dimension: " + std::string(name));
    }
  }
  if (!values_.empty() && values.size() != values_.front().size()) {
    return Status::InvalidArgument(
        "dimension " + std::string(name) + " has " +
        std::to_string(values.size()) + " instants, expected " +
        std::to_string(values_.front().size()));
  }
  names_.emplace_back(name);
  values_.push_back(values);
  return Status::OK();
}

Result<tsdb::TimeSeries> DimensionedSeriesBuilder::Build() const {
  if (names_.empty()) {
    return Status::InvalidArgument("no dimensions added");
  }
  tsdb::TimeSeries series;
  const size_t length = values_.front().size();
  for (size_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    for (size_t dim = 0; dim < names_.size(); ++dim) {
      const std::string& value = values_[dim][t];
      if (value.empty()) continue;  // No observation in this dimension.
      std::string feature = names_[dim];
      feature += kDimensionSeparator;
      feature += value;
      instant.Set(series.symbols().Intern(feature));
    }
    series.Append(std::move(instant));
  }
  return series;
}

std::string_view DimensionOf(std::string_view feature_name) {
  const size_t separator = feature_name.find(kDimensionSeparator);
  if (separator == std::string_view::npos) return std::string_view();
  return feature_name.substr(0, separator);
}

Pattern ProjectPattern(const Pattern& pattern,
                       const tsdb::SymbolTable& symbols,
                       std::string_view dimension) {
  std::vector<Letter> projected;
  for (const Letter& letter : pattern.letters()) {
    if (DimensionOf(symbols.NameOrPlaceholder(letter.feature)) == dimension) {
      projected.push_back(letter);
    }
  }
  return Pattern(pattern.period(), std::move(projected));
}

uint32_t DimensionCount(const Pattern& pattern,
                        const tsdb::SymbolTable& symbols) {
  std::set<std::string> dimensions;
  for (const Letter& letter : pattern.letters()) {
    dimensions.insert(
        std::string(DimensionOf(symbols.NameOrPlaceholder(letter.feature))));
  }
  return static_cast<uint32_t>(dimensions.size());
}

std::vector<FrequentPattern> CrossDimensionalPatterns(
    const MiningResult& result, const tsdb::SymbolTable& symbols,
    uint32_t min_dimensions) {
  std::vector<FrequentPattern> cross;
  for (const FrequentPattern& entry : result.patterns()) {
    if (DimensionCount(entry.pattern, symbols) >= min_dimensions) {
      cross.push_back(entry);
    }
  }
  return cross;
}

}  // namespace ppm::multidim
