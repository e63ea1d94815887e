// Multi-period mining over periods 10..60 of a 100k-instant series, shared
// (Alg. 3.4, two scans) against looped (Alg. 3.3, two scans per period) --
// the paper's central claim, and the only path through the per-period
// counting of core/multi_period.

#include <string>

#include "bench/bench_util.h"
#include "core/multi_period.h"
#include "harness.h"
#include "obs/metrics.h"
#include "tsdb/series_source.h"

namespace perfbench {
namespace {

using ppm::MultiPeriodResult;
using ppm::bench::DieOr;

constexpr uint32_t kPeriodLow = 10;
constexpr uint32_t kPeriodHigh = 60;
constexpr int kSetupReps = 3;

enum class Method { kShared, kLooped };

MultiPeriodResult MineRange(const ppm::tsdb::TimeSeries& series,
                            Method method, uint32_t threads, bool traced) {
  BenchSpan op(traced, kOpSpan);
  BenchSpan span(traced, "core.multi_period");
  ppm::MiningOptions options;
  options.min_confidence = 0.8;
  options.num_threads = threads;
  ppm::tsdb::InMemorySeriesSource source(&series);
  return DieOr(method == Method::kShared
                   ? ppm::MineMultiPeriodShared(source, kPeriodLow,
                                                kPeriodHigh, options)
                   : ppm::MineMultiPeriodLooped(source, kPeriodLow,
                                                kPeriodHigh, options));
}

bool SameRange(const MultiPeriodResult& a, const MultiPeriodResult& b) {
  if (a.per_period.size() != b.per_period.size()) return false;
  for (size_t i = 0; i < a.per_period.size(); ++i) {
    if (a.per_period[i].first != b.per_period[i].first ||
        !SameResult(a.per_period[i].second, b.per_period[i].second)) {
      return false;
    }
  }
  return true;
}

uint64_t DbPasses() {
  return ppm::obs::MetricsRegistry::Global()
      .GetCounter("ppm.scan.db_passes")
      .value();
}

class PeriodScenario : public Scenario {
 public:
  PeriodScenario(const Args& args, Report* report)
      : args_(args), report_(report) {
    setup_s_ = MedianSeconds(kSetupReps, [&] {
      data_ = DieOr(ppm::synth::GenerateSeries(
          ppm::bench::Figure2Options(100000, 8, InputSeed(args.seed, 4))));
    });
    // Each method's operations are checked against the other method's
    // result, period by period. Computing both also warms both up.
    shared_ref_ = Op(Method::kShared, false);
    looped_ref_ = Op(Method::kLooped, false);
    report_->Check(
        shared_ref_.per_period.size() == kPeriodHigh - kPeriodLow + 1,
        "period: shared result misses periods");
    const ppm::MiningResult* at50 = shared_ref_.ForPeriod(50);
    report_->Check(at50 != nullptr && at50->Find(data_.anchor) != nullptr,
                   "period: planted anchor not found at p=50");
  }

  double setup_s() const override { return setup_s_; }

  void Round() override {
    shared_ms_.push_back(TimeOnceMs([&] { return Op(Method::kShared, false); },
                                    [&](const MultiPeriodResult& r) {
                                      Check(Method::kShared, r);
                                    }));
    looped_ms_.push_back(TimeOnceMs([&] { return Op(Method::kLooped, false); },
                                    [&](const MultiPeriodResult& r) {
                                      Check(Method::kLooped, r);
                                    }));
  }

  void Finish() override {
    report_->Metric("shared_ms", MedianOf(shared_ms_), "ms");
    report_->Metric("looped_ms", MedianOf(looped_ms_), "ms");
  }

  void Trace(double budget_s) override {
    TraceAccounting shared;
    uint64_t shared_passes = 0;
    RunTracedPairs(
        0.5 * budget_s, 0, 2,
        [&](bool traced) { return Op(Method::kShared, traced); },
        [&](const MultiPeriodResult& r) {
          Check(Method::kShared, r);
          shared_passes = DbPasses();
        },
        &shared);
    shared.Emit("period.shared", {"parallel", "core"}, report_);
    report_->Metric("core.multi_period.scan1_ms",
                    shared.InclusiveMs("shared_scan1"), "ms");
    report_->Metric("core.multi_period.scan2_ms",
                    shared.InclusiveMs("shared_scan2"), "ms");
    report_->Metric("core.db_passes.shared", shared_passes, "count");
    // Two passes is the sequential path's invariant (Alg. 3.4). The pooled
    // path counts F1 and registers hits period by period over the
    // materialized buffer and records each as a pass, so its count is
    // reported, not checked.
    if (args_.threads == 1) {
      report_->Check(shared_passes == 2, "period: shared db_passes != 2");
    }

    TraceAccounting looped;
    uint64_t looped_passes = 0;
    RunTracedPairs(
        0.5 * budget_s, 0, 2,
        [&](bool traced) { return Op(Method::kLooped, traced); },
        [&](const MultiPeriodResult& r) {
          Check(Method::kLooped, r);
          looped_passes = DbPasses();
        },
        &looped);
    looped.Emit("period.looped", {"parallel", "core"}, report_);
    // One per-period task: its own span when the loop runs on the pool, the
    // per-period hit-set mine when it runs sequentially.
    const std::string task =
        args_.threads > 1 ? "multi_period.task" : "mine.hitset";
    const double tasks = looped.Count(task);
    report_->Metric("core.multi_period.task_ms",
                    tasks > 0 ? looped.InclusiveMs(task) / tasks : 0.0, "ms");
    report_->Metric("core.db_passes.looped", looped_passes, "count");
    report_->Check(looped_passes == 2 * (kPeriodHigh - kPeriodLow + 1),
                   "period: looped db_passes != 2 per period");
  }

 private:
  MultiPeriodResult Op(Method method, bool traced) const {
    return MineRange(data_.series, method, args_.threads, traced);
  }

  void Check(Method method, const MultiPeriodResult& result) {
    report_->Check(SameRange(result, method == Method::kShared ? looped_ref_
                                                               : shared_ref_),
                   method == Method::kShared
                       ? "period: shared differs from looped"
                       : "period: looped differs from shared");
  }

  const Args& args_;
  Report* report_;
  double setup_s_ = 0;
  ppm::synth::GeneratedSeries data_;
  MultiPeriodResult shared_ref_;
  MultiPeriodResult looped_ref_;
  std::vector<double> shared_ms_;
  std::vector<double> looped_ms_;
};

}  // namespace

std::unique_ptr<Scenario> MakePeriodRange(const Args& args, Report* report) {
  return std::make_unique<PeriodScenario>(args, report);
}

}  // namespace perfbench
