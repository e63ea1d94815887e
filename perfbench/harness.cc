#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace perfbench {

uint64_t InputSeed(uint64_t base, uint64_t salt) {
  // splitmix64 finalizer: distinct salts give unrelated seeds.
  uint64_t z = base * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::Count(uint64_t attempted, uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu failed: %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
  }
}

std::string Report::ToJson() const {
  ppm::obs::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(correct());
  json.Key("attempted").Uint(attempted_);
  json.Key("failed").Uint(failed_);
  json.Key("metrics").BeginObject();
  for (const auto& [name, metric] : metrics_) {
    json.Key(name).BeginObject();
    json.Key("value").Double(metric.first);
    json.Key("unit").String(metric.second);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void ResetObs() {
  ppm::obs::Tracer::Global().Clear();
  ppm::obs::MetricsRegistry::Global().Reset();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool SameResult(const ppm::MiningResult& a, const ppm::MiningResult& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const ppm::FrequentPattern& x = a.patterns()[i];
    const ppm::FrequentPattern& y = b.patterns()[i];
    if (x.pattern != y.pattern || x.count != y.count ||
        x.confidence != y.confidence) {
      return false;
    }
  }
  return true;
}

std::string LayerOf(const std::string& name) {
  static const char* const kBenchLayers[] = {"tsdb.", "core.", "output.",
                                             "service.", "stream.",
                                             "parallel."};
  for (const char* prefix : kBenchLayers) {
    if (name.rfind(prefix, 0) == 0) {
      return std::string(prefix, std::char_traits<char>::length(prefix) - 1);
    }
  }
  const auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (name == "materialize" || ends_with(".shard") || ends_with(".merge")) {
    return "parallel";
  }
  return "core";
}

LayerSplit SplitLastOp() {
  const std::vector<ppm::obs::TraceEvent>& events =
      ppm::obs::Tracer::Global().events();
  LayerSplit split;
  size_t root = events.size();
  for (size_t i = events.size(); i-- > 0;) {
    if (events[i].name == kOpSpan) {
      root = i;
      break;
    }
  }
  if (root == events.size()) return split;
  const ppm::obs::TraceEvent& op = events[root];
  const uint64_t op_end = op.start_us + op.dur_us;
  split.total_ms = static_cast<double>(op.dur_us) / 1e3;

  // Spans inside the operation's interval and nested below it (depth is the
  // tracer's open-span count, so spans of library worker threads also sit
  // below the benchmark span that was open when they started).
  std::vector<size_t> inner;
  std::vector<uint64_t> cuts = {op.start_us, op_end};
  for (size_t i = root + 1; i < events.size(); ++i) {
    const ppm::obs::TraceEvent& e = events[i];
    if (e.depth <= op.depth || e.start_us < op.start_us ||
        e.start_us + e.dur_us > op_end) {
      continue;
    }
    inner.push_back(i);
    cuts.push_back(e.start_us);
    cuts.push_back(e.start_us + e.dur_us);
    split.inclusive_ms[e.name] += static_cast<double>(e.dur_us) / 1e3;
    ++split.count[e.name];
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  split.layer_ms["unspanned"] = 0;
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const uint64_t a = cuts[c];
    const uint64_t b = cuts[c + 1];
    const ppm::obs::TraceEvent* innermost = nullptr;
    for (const size_t i : inner) {
      const ppm::obs::TraceEvent& e = events[i];
      if (e.start_us <= a && e.start_us + e.dur_us >= b &&
          (innermost == nullptr || e.depth >= innermost->depth)) {
        innermost = &e;
      }
    }
    const double ms = static_cast<double>(b - a) / 1e3;
    if (innermost == nullptr) {
      split.layer_ms["unspanned"] += ms;
    } else {
      split.layer_ms[LayerOf(innermost->name)] += ms;
      split.self_ms[innermost->name] += ms;
    }
  }
  return split;
}

namespace {

double MedianOver(const std::vector<LayerSplit>& splits,
                  double (*field)(const LayerSplit&, const std::string&),
                  const std::string& key) {
  std::vector<double> values;
  values.reserve(splits.size());
  for (const LayerSplit& split : splits) values.push_back(field(split, key));
  return MedianOf(values);
}

template <typename Map>
double Lookup(const Map& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

double TraceAccounting::InclusiveMs(const std::string& span) const {
  return MedianOver(
      splits_,
      [](const LayerSplit& s, const std::string& k) {
        return Lookup(s.inclusive_ms, k);
      },
      span);
}

double TraceAccounting::SelfMs(const std::string& span) const {
  return MedianOver(
      splits_,
      [](const LayerSplit& s, const std::string& k) {
        return Lookup(s.self_ms, k);
      },
      span);
}

double TraceAccounting::Count(const std::string& span) const {
  return MedianOver(
      splits_,
      [](const LayerSplit& s, const std::string& k) {
        return Lookup(s.count, k);
      },
      span);
}

void TraceAccounting::Emit(const std::string& prefix,
                           const std::vector<std::string>& layers,
                           Report* report) const {
  const auto layer_median = [this](const std::string& layer) {
    return MedianOver(
        splits_,
        [](const LayerSplit& s, const std::string& k) {
          return Lookup(s.layer_ms, k);
        },
        layer);
  };
  std::vector<double> totals;
  for (const LayerSplit& split : splits_) totals.push_back(split.total_ms);
  const double traced = MedianOf(totals);
  const double untraced = MedianOf(untraced_ms_);

  std::vector<std::string> all = layers;
  all.push_back("unspanned");
  double accounted = 0;
  for (const std::string& layer : all) {
    const double ms = layer_median(layer);
    accounted += ms;
    report->Metric(prefix + ".layer." + layer + "_pct",
                   traced > 0 ? 100.0 * ms / traced : 0.0, "%");
  }
  // Time attributed to a layer outside `layers` would be a span the
  // benchmark does not account for.
  double stray = 0;
  for (const LayerSplit& split : splits_) {
    for (const auto& [layer, ms] : split.layer_ms) {
      if (std::find(all.begin(), all.end(), layer) == all.end()) stray += ms;
    }
  }
  report->Check(stray == 0, prefix + ": time in a layer outside the split");

  const double gap = untraced > 0 ? std::fabs(accounted - untraced) / untraced
                                  : 1.0;
  report->Metric(prefix + ".traced_ms", traced, "ms");
  report->Metric(prefix + ".untraced_ms", untraced, "ms");
  report->Metric(prefix + ".accounting_gap_pct", 100.0 * gap, "%");
  report->Metric("obs.trace_overhead_pct." + prefix,
                 untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0,
                 "%");
  report->Check(gap <= kAccountingShare,
                prefix + ": layers + remainder differ from the untraced time "
                         "by more than the accounting share");
}

}  // namespace perfbench
