// Batch mining as `ppm mine` runs it: decode a v3 `.ppmts` file, mine it,
// format the patterns. Two input shapes:
//
//   table1: 500k instants, p=50, |F1|=12, MAX-PAT-LENGTH 8 -- decode and the
//           two scans dominate, derivation is ~0.5 ms. Also mined with
//           Apriori (Alg. 3.1) for the paper's hit-set vs Apriori claim.
//   long:   200k instants, p=50, |F1|=20, MAX-PAT-LENGTH 16 (65,539
//           patterns) -- derivation, hit-store counting and result assembly
//           dominate.

#include <algorithm>
#include <random>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "cli/command_util.h"
#include "core/miner.h"
#include "harness.h"
#include "obs/metrics.h"
#include "parallel/materialize.h"
#include "tsdb/series_codec.h"
#include "tsdb/series_source.h"

namespace perfbench {
namespace {

using ppm::Algorithm;
using ppm::MiningOptions;
using ppm::MiningResult;
using ppm::bench::DieOr;

constexpr double kMinConf = 0.8;
constexpr int kSetupReps = 3;

struct BatchInput {
  std::string path;
  uint64_t length = 0;
  ppm::Pattern anchor;
};

/// Generates the series and writes it as v3; returns what the checks need.
BatchInput MakeInput(const ppm::synth::GeneratorOptions& gen,
                     const std::string& path) {
  ppm::synth::GeneratedSeries data = DieOr(ppm::synth::GenerateSeries(gen));
  ppm::bench::DieIf(ppm::tsdb::WriteBinarySeries(
      data.series, path, ppm::tsdb::BinaryFormatVersion::kV3));
  return {path, data.series.length(), data.anchor};
}

MiningOptions Options(uint32_t threads) {
  MiningOptions options;
  options.period = 50;
  options.min_confidence = kMinConf;
  options.num_threads = threads;
  return options;
}

/// One user-facing operation: decode -> mine -> format. With `traced`, a
/// benchmark span wraps the operation and each layer call.
MiningResult DecodeMineFormat(const std::string& path, uint32_t threads,
                              Algorithm algorithm, bool traced) {
  BenchSpan op(traced, kOpSpan);
  ppm::tsdb::TimeSeries series;
  {
    BenchSpan span(traced, "tsdb.decode");
    series = DieOr(ppm::tsdb::ReadBinarySeries(path));
  }
  MiningResult result;
  {
    BenchSpan span(traced, "core.mine");
    result = DieOr(ppm::Mine(series, Options(threads), algorithm));
  }
  {
    BenchSpan span(traced, "output.format");
    std::ostringstream out;
    ppm::cli::PrintPatterns(result.patterns(), series.symbols(), 0, out);
  }
  return result;
}

uint64_t CounterValue(const char* name) {
  return ppm::obs::MetricsRegistry::Global().GetCounter(name).value();
}

uint32_t OtherThreads(uint32_t threads) { return threads == 1 ? 4 : 1; }

/// Allocations per instant of decode and of a threads-1 hit-set mine.
void AllocationProbe(const BatchInput& input, Report* report) {
  ResetObs();
  ppm::tsdb::TimeSeries series = DieOr(ppm::tsdb::ReadBinarySeries(input.path));
  (void)DieOr(ppm::Mine(series, Options(1)));  // warm lazy statics
  ResetObs();
  uint64_t before = AllocCount();
  series = DieOr(ppm::tsdb::ReadBinarySeries(input.path));
  const uint64_t decode_allocs = AllocCount() - before;
  ResetObs();
  before = AllocCount();
  (void)DieOr(ppm::Mine(series, Options(1)));
  const uint64_t mine_allocs = AllocCount() - before;
  const double n = static_cast<double>(input.length);
  report->Metric("tsdb.decode_allocs_per_instant", decode_allocs / n,
                 "allocs/instant");
  report->Metric("core.mine_allocs_per_instant", mine_allocs / n,
                 "allocs/instant");
}

/// The parallel layer called directly, at 4 threads in every workload:
/// `MaterializePrefix` of the decoded series, and the share of the pool's
/// capacity the workers were busy during a 4-thread hit-set mine.
void ParallelProbe(const BatchInput& input, Report* report) {
  const ppm::tsdb::TimeSeries series =
      DieOr(ppm::tsdb::ReadBinarySeries(input.path));
  const std::vector<double> materialize = TimeLoopMs(1.0, 1, 5, [&] {
    ppm::tsdb::InMemorySeriesSource source(&series);
    return DieOr(ppm::parallel::MaterializePrefix(source, series.length()))
        .size();
  });
  report->Metric("parallel.materialize_ms", MedianOf(materialize), "ms");

  std::vector<double> shares;
  for (int rep = 0; rep < 4; ++rep) {
    ResetObs();
    const MiningResult result = DieOr(ppm::Mine(series, Options(4)));
    const double busy_us = static_cast<double>(
        ppm::obs::MetricsRegistry::Global()
            .GetHistogram("ppm.parallel.worker_busy_us")
            .sum());
    shares.push_back(busy_us / (4 * result.stats().elapsed_seconds * 1e6));
  }
  report->Metric("parallel.worker_busy_share", MedianOf(shares), "share");
}

/// Decode -> mine -> format of one v3 file at the workload's thread count,
/// checked against the hit-set result at the other thread count.
class BatchScenario : public Scenario {
 public:
  double setup_s() const override { return setup_s_; }

 protected:
  BatchScenario(const Args& args, Report* report,
                const ppm::synth::GeneratorOptions& gen, const char* path,
                const char* name)
      : args_(args), report_(report), name_(name) {
    setup_s_ = MedianSeconds(kSetupReps, [&] { input_ = MakeInput(gen, path); });
    reference_ = DecodeMineFormat(input_.path, OtherThreads(args.threads),
                                  Algorithm::kMaxSubpatternHitSet, false);
    report_->Check(reference_.Find(input_.anchor) != nullptr,
                   name_ + ": planted anchor not found");
  }

  MiningResult Op(Algorithm algorithm, bool traced) const {
    return DecodeMineFormat(input_.path, args_.threads, algorithm, traced);
  }
  void CheckOp(const MiningResult& result, const char* what) {
    report_->Check(SameResult(result, reference_),
                   name_ + ": " + what +
                       " differs from the other thread count's hit-set result");
  }
  double TimeOp(Algorithm algorithm, const char* what) {
    return TimeOnceMs([&] { return Op(algorithm, false); },
                      [&](const MiningResult& r) { CheckOp(r, what); });
  }

  const Args& args_;
  Report* report_;
  std::string name_;
  double setup_s_ = 0;
  BatchInput input_;
  MiningResult reference_;
};

class Table1Scenario : public BatchScenario {
 public:
  Table1Scenario(const Args& args, Report* report)
      : BatchScenario(args, report,
                      ppm::bench::Figure2Options(500000, 8,
                                                 InputSeed(args.seed, 1)),
                      "table1.ppmts", "table1") {
    CheckOp(Op(Algorithm::kMaxSubpatternHitSet, false), "hit-set");  // warm-up
    CheckOp(Op(Algorithm::kApriori, false), "apriori");
  }

  void Round() override {
    mine_ms_.push_back(TimeOp(Algorithm::kMaxSubpatternHitSet, "hit-set"));
    apriori_ms_.push_back(TimeOp(Algorithm::kApriori, "apriori"));
  }

  void Finish() override {
    report_->Metric("table1_mine_ms", MedianOf(mine_ms_), "ms");
    report_->Metric("apriori_ms", MedianOf(apriori_ms_), "ms");
  }

  void Trace(double budget_s) override {
    TraceAccounting hitset;
    uint64_t db_passes = 0;
    RunTracedPairs(
        0.5 * budget_s, 1, 3,
        [&](bool traced) {
          return Op(Algorithm::kMaxSubpatternHitSet, traced);
        },
        [&](const MiningResult& r) {
          CheckOp(r, "hit-set");
          db_passes = CounterValue("ppm.scan.db_passes");
        },
        &hitset);
    hitset.Emit("table1", {"tsdb", "parallel", "core", "output"}, report_);
    report_->Metric("tsdb.decode_ms", hitset.InclusiveMs("tsdb.decode"), "ms");
    report_->Metric("core.f1_scan_ms", hitset.InclusiveMs("f1_scan"), "ms");
    report_->Metric("core.mine_hitset_ms", hitset.InclusiveMs("mine.hitset"),
                    "ms");
    report_->Metric("core.db_passes.hitset", db_passes, "count");
    report_->Check(db_passes == 2, "table1: hit-set db_passes != 2");

    TraceAccounting apriori;
    uint64_t passes = 0, levels = 0, candidates = 0;
    RunTracedPairs(
        0.3 * budget_s, 1, 1,
        [&](bool traced) { return Op(Algorithm::kApriori, traced); },
        [&](const MiningResult& r) {
          CheckOp(r, "apriori");
          passes = CounterValue("ppm.scan.db_passes");
          levels = CounterValue("ppm.apriori.level_scans");
          candidates = CounterValue("ppm.apriori.candidates_evaluated");
        },
        &apriori);
    apriori.Emit("table1.apriori", {"tsdb", "parallel", "core", "output"},
                 report_);
    report_->Metric("core.db_passes.apriori", passes, "count");
    report_->Metric("core.apriori.levels", levels, "count");
    report_->Metric("core.apriori.candidates", candidates, "count");
    report_->Check(passes == 1 + levels,
                   "table1: apriori db_passes != 1 + levels");

    AllocationProbe(input_, report_);
    ParallelProbe(input_, report_);
  }

 private:
  std::vector<double> mine_ms_;
  std::vector<double> apriori_ms_;
};

ppm::synth::GeneratorOptions LongOptions(uint64_t seed) {
  ppm::synth::GeneratorOptions gen =
      ppm::bench::Figure2Options(200000, 16, InputSeed(seed, 2));
  gen.num_f1 = 20;
  return gen;
}

class LongScenario : public BatchScenario {
 public:
  LongScenario(const Args& args, Report* report)
      : BatchScenario(args, report, LongOptions(args.seed), "long.ppmts",
                      "long") {
    CheckOp(Op(Algorithm::kMaxSubpatternHitSet, false), "hit-set");  // warm-up
  }

  void Round() override {
    mine_ms_.push_back(TimeOp(Algorithm::kMaxSubpatternHitSet, "hit-set"));
  }

  void Finish() override {
    report_->Metric("long_mine_ms", MedianOf(mine_ms_), "ms");
  }

  void Trace(double budget_s) override {
    TraceAccounting accounting;
    MiningResult last;
    uint64_t visits = 0, queries = 0;
    RunTracedPairs(
        0.85 * budget_s, 0, 2,
        [&](bool traced) {
          return Op(Algorithm::kMaxSubpatternHitSet, traced);
        },
        [&](const MiningResult& r) {
          CheckOp(r, "hit-set");
          last = r;
          visits = CounterValue("ppm.tree.query_node_visits");
          queries = CounterValue("ppm.derivation.count_queries");
        },
        &accounting);
    accounting.Emit("long", {"tsdb", "parallel", "core", "output"}, report_);
    report_->Metric("long.tsdb.decode_ms",
                    accounting.InclusiveMs("tsdb.decode"), "ms");
    report_->Metric("core.second_scan_ms",
                    accounting.InclusiveMs("second_scan"), "ms");
    report_->Metric("core.derivation_ms", accounting.InclusiveMs("derivation"),
                    "ms");
    report_->Metric("core.hitset_unspanned_ms",
                    accounting.SelfMs("mine.hitset"), "ms");
    report_->Metric("core.derivation.candidates",
                    last.stats().candidates_evaluated, "count");
    report_->Metric("core.tree.node_visits_per_query",
                    queries > 0 ? static_cast<double>(visits) / queries : 0.0,
                    "visits/query");

    // Result assembly on its own: canonical sort of a shuffled copy.
    std::mt19937_64 rng(InputSeed(args_.seed, 3));
    std::vector<double> canonicalize;
    for (int rep = 0; rep < 3; ++rep) {
      MiningResult copy = last;
      std::shuffle(copy.patterns().begin(), copy.patterns().end(), rng);
      const double start = NowSeconds();
      copy.Canonicalize();
      canonicalize.push_back((NowSeconds() - start) * 1e3);
      report_->Check(SameResult(copy, last),
                     "long: canonicalized copy differs");
    }
    report_->Metric("core.result.canonicalize_ms", MedianOf(canonicalize), "ms");
  }

 private:
  std::vector<double> mine_ms_;
};

}  // namespace

std::unique_ptr<Scenario> MakeTable1(const Args& args, Report* report) {
  return std::make_unique<Table1Scenario>(args, report);
}

std::unique_ptr<Scenario> MakeLongPatterns(const Args& args, Report* report) {
  return std::make_unique<LongScenario>(args, report);
}

}  // namespace perfbench
