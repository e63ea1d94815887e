// Mining-side command adapters: mine, scan, apply, evolve, suggest.

#include <algorithm>
#include <fstream>

#include "analysis/period_suggest.h"
#include "cli/command_util.h"
#include "cli/commands.h"
#include "core/maximal.h"
#include "core/maximal_miner.h"
#include "core/miner.h"
#include "core/multi_period.h"
#include "core/pattern_io.h"
#include "evolve/evolution.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "rules/rules.h"
#include "tsdb/series_source.h"

namespace ppm::cli {

Status RunMine(const ArgMap& args, std::ostream& out) {
  // Worker mode: `ppm dist run` launches `ppm mine --shard N ...`
  // subprocesses. It has its own flag set (commands_dist.cc).
  if (args.Has("shard")) return RunMineShard(args, out);
  PPM_RETURN_IF_ERROR(args.CheckAllowed({"input", "period", "min-conf",
                                         "min-count", "algorithm",
                                         "max-letters", "threads", "maximal",
                                         "rules", "top", "save", "stats-json",
                                         "metrics-prom", "trace-out",
                                         "deadline-ms", "memory-budget-mb",
                                         "budget-policy"}));
  // Scope metrics and spans to this run so the emitted report covers only
  // the work below (the registry is process-global). Loading the input is
  // part of the run: it gets its own span, as does writing the output.
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Clear();
  tsdb::TimeSeries series;
  {
    const obs::TraceSpan span = obs::Tracer::Global().StartSpan("cli.load");
    PPM_ASSIGN_OR_RETURN(series, LoadSeries(args.GetString("input", "")));
  }
  PPM_ASSIGN_OR_RETURN(MiningOptions options, MiningOptionsFromArgs(args));
  PPM_ASSIGN_OR_RETURN(const uint64_t top, args.GetUint("top", 50));

  const std::string algorithm = args.GetString("algorithm", "hitset");
  tsdb::InMemorySeriesSource source(&series);
  Result<MiningResult> mined = Status::Internal("no algorithm selected");
  if (algorithm == "hitset") {
    mined = Mine(source, options, Algorithm::kMaxSubpatternHitSet);
  } else if (algorithm == "apriori") {
    mined = Mine(source, options, Algorithm::kApriori);
  } else if (algorithm == "maximal") {
    mined = MineMaximalHitSet(source, options);
  } else {
    return Status::InvalidArgument(
        "--algorithm must be one of: hitset, apriori, maximal");
  }
  if (!mined.ok()) {
    // An interrupted or failed run still emits its report when one was
    // requested: the captured metrics (segments scanned, fault counters)
    // are the partial-progress record of how far the run got.
    if (args.Has("stats-json")) {
      obs::RunReport report("mine");
      report.AddMeta("algorithm", algorithm);
      report.AddMeta("input", args.GetString("input", ""));
      report.AddMeta("period", std::to_string(options.period));
      report.AddMeta("error", mined.status().ToString());
      obs::AddBuildMeta(&report);
      obs::RecordResourceMetrics();
      report.CaptureGlobal();
      PPM_RETURN_IF_ERROR(report.WriteJson(args.GetString("stats-json", "")));
    }
    return mined.status();
  }
  MiningResult result = std::move(*mined);

  obs::TraceSpan output_span = obs::Tracer::Global().StartSpan("cli.output");
  out << "period=" << options.period << " m=" << result.stats().num_periods
      << " |F1|=" << result.stats().num_f1_letters
      << " scans=" << result.stats().scans << " patterns=" << result.size()
      << "\n";

  if (args.Has("maximal") && algorithm != "maximal") {
    const auto maximal = MaximalPatterns(result);
    out << "maximal patterns: " << maximal.size() << "\n";
    PrintPatterns(maximal, series.symbols(), top, out);
  } else {
    PrintPatterns(result.patterns(), series.symbols(), top, out);
  }

  if (args.Has("rules")) {
    PPM_ASSIGN_OR_RETURN(const double rule_conf, args.GetDouble("rules", 0.9));
    PPM_ASSIGN_OR_RETURN(const auto rules,
                         rules::GenerateRules(result, rule_conf));
    out << "rules (confidence >= " << rule_conf << "): " << rules.size()
        << "\n";
    uint64_t shown = 0;
    for (const auto& rule : rules) {
      if (top != 0 && shown++ >= top) break;
      out << "  " << rule.Format(series.symbols()) << "\n";
    }
  }
  if (args.Has("save")) {
    const std::string save_path = args.GetString("save", "");
    PPM_RETURN_IF_ERROR(WritePatternsFile(result, series.symbols(), save_path));
    out << "saved " << result.size() << " patterns to " << save_path << "\n";
  }
  output_span.End();
  if (args.Has("trace-out")) {
    const std::string trace_path = args.GetString("trace-out", "");
    PPM_RETURN_IF_ERROR(obs::Tracer::Global().WriteChromeTrace(trace_path));
    out << "wrote trace to " << trace_path << "\n";
  }
  if (args.Has("stats-json")) {
    const std::string stats_path = args.GetString("stats-json", "");
    obs::RunReport report("mine");
    report.AddMeta("algorithm", algorithm);
    report.AddMeta("input", args.GetString("input", ""));
    report.AddMeta("period", std::to_string(options.period));
    report.AddMeta("patterns", std::to_string(result.size()));
    obs::AddBuildMeta(&report);
    obs::RecordResourceMetrics();
    report.AddRawSection("mining_stats", result.stats().ToJson());
    report.CaptureGlobal();
    PPM_RETURN_IF_ERROR(report.WriteJson(stats_path));
    out << "wrote stats to " << stats_path << "\n";
  }
  if (args.Has("metrics-prom")) {
    const std::string prom_path = args.GetString("metrics-prom", "");
    obs::RecordResourceMetrics();
    std::ofstream prom(prom_path, std::ios::trunc);
    prom << obs::MetricsRegistry::Global().RenderPrometheus();
    if (!prom) {
      return Status::Internal("failed to write " + prom_path);
    }
    out << "wrote metrics to " << prom_path << "\n";
  }
  return Status::OK();
}

Status RunApply(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed({"patterns", "input", "min-drop"}));
  const std::string patterns_path = args.GetString("patterns", "");
  if (patterns_path.empty()) {
    return Status::InvalidArgument("--patterns is required");
  }
  PPM_ASSIGN_OR_RETURN(tsdb::TimeSeries series,
                       LoadSeries(args.GetString("input", "")));
  PPM_ASSIGN_OR_RETURN(const MiningResult patterns,
                       ReadPatternsFile(patterns_path, &series.symbols()));
  PPM_ASSIGN_OR_RETURN(const double min_drop, args.GetDouble("min-drop", 0.0));
  PPM_ASSIGN_OR_RETURN(const auto applied, ApplyPatterns(patterns, series));

  out << "applied " << applied.size() << " patterns\n";
  for (const AppliedPattern& row : applied) {
    const double drop = row.old_confidence - row.new_confidence;
    if (drop < min_drop) continue;
    char buffer[72];
    std::snprintf(buffer, sizeof(buffer),
                  "  old=%.4f new=%.4f (%+.4f)  ", row.old_confidence,
                  row.new_confidence, row.new_confidence - row.old_confidence);
    out << buffer << row.pattern.Format(series.symbols()) << "\n";
  }
  return Status::OK();
}

Status RunEvolve(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed({"input", "period", "window",
                                         "min-conf", "min-count", "threads",
                                         "top", "deadline-ms",
                                         "memory-budget-mb",
                                         "budget-policy"}));
  PPM_ASSIGN_OR_RETURN(tsdb::TimeSeries series,
                       LoadSeries(args.GetString("input", "")));
  PPM_ASSIGN_OR_RETURN(MiningOptions options, MiningOptionsFromArgs(args));
  PPM_ASSIGN_OR_RETURN(const uint64_t window,
                       args.GetUint("window", options.period * 100ull));
  PPM_ASSIGN_OR_RETURN(const uint64_t top, args.GetUint("top", 5));

  PPM_ASSIGN_OR_RETURN(const auto windows,
                       evolve::MineWindows(series, window, options));
  out << windows.size() << " windows of " << window << " instants\n";
  for (size_t w = 0; w < windows.size(); ++w) {
    out << "window " << w << " [start " << windows[w].start << "]: "
        << windows[w].result.size() << " patterns\n";
    if (w == 0) continue;
    const auto diff =
        evolve::DiffResults(windows[w - 1].result, windows[w].result, 0.1);
    for (const auto& entry : diff.appeared) {
      out << "  + " << entry.pattern.Format(series.symbols()) << "\n";
    }
    for (const auto& entry : diff.vanished) {
      out << "  - " << entry.pattern.Format(series.symbols()) << "\n";
    }
    for (const auto& change : diff.shifted) {
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), "  ~ %.2f -> %.2f  ",
                    change.before_confidence, change.after_confidence);
      out << buffer << change.pattern.Format(series.symbols()) << "\n";
    }
  }

  const auto stability = evolve::StabilityReport(windows);
  out << "most stable patterns:\n";
  uint64_t shown = 0;
  for (const auto& entry : stability) {
    if (top != 0 && shown++ >= top) break;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "  %u/%zu windows, mean conf %.2f  ",
                  entry.windows_present, windows.size(),
                  entry.mean_confidence);
    out << buffer << entry.pattern.Format(series.symbols()) << "\n";
  }
  return Status::OK();
}

Status RunScan(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed({"input", "period-low", "period-high",
                                         "min-conf", "min-count", "method",
                                         "max-letters", "threads", "top",
                                         "deadline-ms", "memory-budget-mb",
                                         "budget-policy"}));
  PPM_ASSIGN_OR_RETURN(tsdb::TimeSeries series,
                       LoadSeries(args.GetString("input", "")));
  PPM_ASSIGN_OR_RETURN(MiningOptions options, MiningOptionsFromArgs(args));
  PPM_ASSIGN_OR_RETURN(const uint64_t low, args.GetUint("period-low", 2));
  PPM_ASSIGN_OR_RETURN(const uint64_t high, args.GetUint("period-high", 16));
  PPM_ASSIGN_OR_RETURN(const uint64_t top, args.GetUint("top", 3));

  const std::string method = args.GetString("method", "shared");
  tsdb::InMemorySeriesSource source(&series);
  MultiPeriodResult scan;
  if (method == "shared") {
    PPM_ASSIGN_OR_RETURN(
        scan, MineMultiPeriodShared(source, static_cast<uint32_t>(low),
                                    static_cast<uint32_t>(high), options));
  } else if (method == "looped") {
    PPM_ASSIGN_OR_RETURN(
        scan, MineMultiPeriodLooped(source, static_cast<uint32_t>(low),
                                    static_cast<uint32_t>(high), options));
  } else {
    return Status::InvalidArgument("--method must be shared or looped");
  }

  out << "scanned periods " << low << ".." << high << " in "
      << scan.total_scans << " scans of the series\n";
  for (const auto& [period, result] : scan.per_period) {
    if (result.empty()) continue;
    out << "period " << period << ": " << result.size()
        << " frequent patterns\n";
    // Show the longest few.
    std::vector<FrequentPattern> sorted = result.patterns();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const FrequentPattern& a, const FrequentPattern& b) {
                       return a.pattern.LetterCount() > b.pattern.LetterCount();
                     });
    if (top != 0 && sorted.size() > top) sorted.resize(top);
    PrintPatterns(sorted, series.symbols(), 0, out);
  }
  return Status::OK();
}

Status RunSuggest(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed(
      {"input", "period-low", "period-high", "per-feature", "top"}));
  PPM_ASSIGN_OR_RETURN(tsdb::TimeSeries series,
                       LoadSeries(args.GetString("input", "")));
  PPM_ASSIGN_OR_RETURN(const uint64_t low, args.GetUint("period-low", 2));
  PPM_ASSIGN_OR_RETURN(const uint64_t high, args.GetUint("period-high", 64));
  PPM_ASSIGN_OR_RETURN(const uint64_t top, args.GetUint("top", 10));

  std::vector<analysis::PeriodScore> scores;
  if (args.Has("per-feature")) {
    PPM_ASSIGN_OR_RETURN(scores, analysis::SuggestPeriodsPerFeature(
                                     series, static_cast<uint32_t>(low),
                                     static_cast<uint32_t>(high)));
  } else {
    PPM_ASSIGN_OR_RETURN(
        scores, analysis::SuggestPeriods(series, static_cast<uint32_t>(low),
                                         static_cast<uint32_t>(high)));
  }
  const auto fundamentals = analysis::FundamentalPeriods(scores);
  out << "period  concentration  confidence  letter\n";
  uint64_t shown = 0;
  for (const analysis::PeriodScore& score : fundamentals) {
    if (top != 0 && shown++ >= top) break;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%-7u %-14.3f %-11.3f ",
                  score.period, score.concentration, score.confidence);
    out << buffer << series.symbols().NameOrPlaceholder(score.feature) << "@+"
        << score.position << "\n";
  }
  return Status::OK();
}

}  // namespace ppm::cli
