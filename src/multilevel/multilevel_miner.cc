#include "multilevel/multilevel_miner.h"

#include <set>
#include <string>
#include <utility>

#include "core/hitset_miner.h"
#include "tsdb/series_source.h"

namespace ppm::multilevel {

Result<std::vector<LevelResult>> MineDrillDown(const tsdb::TimeSeries& series,
                                               const Taxonomy& taxonomy,
                                               const MiningOptions& options) {
  const uint32_t max_depth = taxonomy.MaxDepth();
  std::vector<LevelResult> levels;

  // Frequent letters of the previous (more general) level, as
  // (position, generalized feature name) pairs.
  std::set<std::pair<uint32_t, std::string>> frequent_above;

  for (uint32_t depth = 1; depth <= max_depth; ++depth) {
    LevelResult level;
    level.depth = depth;
    level.series = GeneralizeToDepth(series, taxonomy, depth);

    MiningOptions level_options = options;
    if (depth > 1) {
      const tsdb::SymbolTable* symbols = &level.series.symbols();
      const Taxonomy* tax = &taxonomy;
      const auto* above = &frequent_above;
      level_options.letter_filter = [symbols, tax, above, depth](
                                        uint32_t position,
                                        tsdb::FeatureId feature) {
        const std::string name = symbols->NameOrPlaceholder(feature);
        const std::string parent = tax->AncestorAtDepth(name, depth - 1);
        return above->contains({position, parent});
      };
    }

    tsdb::InMemorySeriesSource source(&level.series);
    PPM_ASSIGN_OR_RETURN(level.result, MineHitSet(source, level_options));

    // Collect this level's frequent letters for the next level's filter.
    frequent_above.clear();
    for (const FrequentPattern& entry : level.result.patterns()) {
      if (entry.pattern.LetterCount() != 1) continue;
      for (const Letter& letter : entry.pattern.letters()) {
        frequent_above.insert(
            {letter.position,
             level.series.symbols().NameOrPlaceholder(letter.feature)});
      }
    }
    levels.push_back(std::move(level));
  }
  return levels;
}

}  // namespace ppm::multilevel
