#include "rules/rules.h"

#include <cstdio>
#include <unordered_map>
#include <utility>

namespace ppm::rules {

std::string PeriodicRule::Format(const tsdb::SymbolTable& symbols) const {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "  (conf=%.4f, pat_conf=%.4f, supp=%llu)",
                rule_confidence, pattern_confidence,
                static_cast<unsigned long long>(support_count));
  return antecedent.Format(symbols) + "  =>  " + consequent.Format(symbols) +
         buffer;
}

Result<std::vector<PeriodicRule>> GenerateRules(const MiningResult& result,
                                                double min_rule_confidence) {
  if (min_rule_confidence < 0.0 || min_rule_confidence > 1.0) {
    return Status::InvalidArgument("min_rule_confidence must be in [0, 1]");
  }

  std::unordered_map<Pattern, uint64_t, PatternHash> counts;
  counts.reserve(result.size());
  for (const FrequentPattern& entry : result.patterns()) {
    counts.emplace(entry.pattern, entry.count);
  }

  std::vector<PeriodicRule> rules;
  for (const FrequentPattern& entry : result.patterns()) {
    const Pattern& pattern = entry.pattern;
    const uint32_t period = pattern.period();

    // One split per boundary between two non-`*` positions: the antecedent
    // takes the letters before it, the consequent the rest.
    const std::vector<Letter>& letters = pattern.letters();
    for (size_t split = 1; split < letters.size(); ++split) {
      if (letters[split].position == letters[split - 1].position) continue;
      Pattern antecedent(period, std::vector<Letter>(letters.begin(),
                                                     letters.begin() + split));
      Pattern consequent(period, std::vector<Letter>(letters.begin() + split,
                                                     letters.end()));
      const auto it = counts.find(antecedent);
      if (it == counts.end() || it->second == 0) {
        return Status::Internal(
            "mining result lacks a frequent subpattern (Apriori property "
            "violated by input)");
      }
      PeriodicRule rule;
      rule.support_count = entry.count;
      rule.rule_confidence =
          static_cast<double>(entry.count) / static_cast<double>(it->second);
      rule.pattern_confidence = entry.confidence;
      rule.antecedent = std::move(antecedent);
      rule.consequent = std::move(consequent);
      if (rule.rule_confidence >= min_rule_confidence) {
        rules.push_back(std::move(rule));
      }
    }
  }
  return rules;
}

std::vector<PeriodicRule> PerfectRules(const std::vector<PeriodicRule>& rules) {
  std::vector<PeriodicRule> perfect;
  for (const PeriodicRule& rule : rules) {
    if (rule.pattern_confidence >= 1.0) perfect.push_back(rule);
  }
  return perfect;
}

}  // namespace ppm::rules
