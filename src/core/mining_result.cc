#include "core/mining_result.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"

namespace ppm {

std::string MiningStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("scans").Uint(scans);
  w.Key("instants_read").Uint(instants_read);
  w.Key("candidates_evaluated").Uint(candidates_evaluated);
  w.Key("hit_store_entries").Uint(hit_store_entries);
  w.Key("tree_nodes").Uint(tree_nodes);
  w.Key("num_f1_letters").Uint(num_f1_letters);
  w.Key("num_periods").Uint(num_periods);
  w.Key("max_level_reached").Uint(max_level_reached);
  w.Key("elapsed_seconds").Double(elapsed_seconds);
  w.EndObject();
  return w.str();
}

bool CanonicalLess(const FrequentPattern& a, const FrequentPattern& b) {
  const uint32_t la = a.pattern.LetterCount();
  const uint32_t lb = b.pattern.LetterCount();
  if (la != lb) return la < lb;
  return a.pattern < b.pattern;
}

const FrequentPattern* MiningResult::Find(const Pattern& pattern) const {
  for (const FrequentPattern& entry : patterns_) {
    if (entry.pattern == pattern) return &entry;
  }
  return nullptr;
}

void MiningResult::Canonicalize() {
  if (std::is_sorted(patterns_.begin(), patterns_.end(), CanonicalLess)) {
    return;
  }
  std::sort(patterns_.begin(), patterns_.end(), CanonicalLess);
}

std::string MiningResult::ToString(const tsdb::SymbolTable& symbols) const {
  std::string out;
  for (const FrequentPattern& entry : patterns_) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "  count=%llu conf=%.4f\n",
                  static_cast<unsigned long long>(entry.count),
                  entry.confidence);
    out += entry.pattern.Format(symbols);
    out += buffer;
  }
  return out;
}

}  // namespace ppm
