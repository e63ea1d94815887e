// Shared pieces of the perfbench scenarios: argument block, result report,
// timing loops, allocation counting, and the self-time split of a traced
// operation into layers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/mining_result.h"
#include "obs/trace.h"

namespace perfbench {

using ppm::bench::MedianOf;

/// Allocations made through the global `operator new` since process start
/// (alloc_counter.cc). Exact when the measured section runs on one thread.
uint64_t AllocCount();

/// Command line of one scenario process (see main.cc).
struct Args {
  /// Worker threads of the mining calls (the workload's thread count).
  uint32_t threads = 1;
  uint64_t seed = 1;
  /// Time budget of the measured loop(s).
  double seconds = 5.0;
  /// false: end-to-end metrics with the benchmark's spans off; true:
  /// per-layer metrics from a traced run.
  bool trace = false;
};

/// Seed of one generated input: `base` mixed with a per-input `salt`, so
/// every input of a run differs and each is a pure function of `--seed`.
uint64_t InputSeed(uint64_t base, uint64_t salt);

/// The one JSON line a scenario process prints: correctness, operation
/// counts, and named metrics with units.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; a failed check is logged to stderr and
  /// counted as a failed operation.
  void Check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what);
  bool correct() const { return failed_ == 0; }
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile, `q` in [0, 1].
double Quantile(std::vector<double> values, double q);

/// Clears the global tracer and zeroes the metrics registry, so span
/// buffers do not grow across repetitions and counters cover one rep.
void ResetObs();

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Field-identical comparison of two mining results: same patterns in the
/// same order with equal counts and confidences.
bool SameResult(const ppm::MiningResult& a, const ppm::MiningResult& b);

/// A benchmark-side span that exists only in the traced run.
class BenchSpan {
 public:
  BenchSpan(bool on, const char* name) {
    if (on) span_ = ppm::obs::Tracer::Global().StartSpan(name);
  }

 private:
  std::optional<ppm::obs::TraceSpan> span_;
};

/// Root span of one traced operation; `SplitLastOp` analyzes the most
/// recent one.
inline constexpr const char* kOpSpan = "bench.op";

/// Wall time of one traced operation, split into layers. Every instant of
/// the operation is attributed to the innermost span open at that instant
/// (benchmark spans around layer calls, the library's own spans inside
/// them), and the span's layer gets it; instants no child span covers are
/// the unspanned remainder. The layers plus the remainder therefore add up
/// to `total_ms` exactly.
struct LayerSplit {
  double total_ms = 0;
  std::map<std::string, double> layer_ms;
  /// Innermost-attributed (self) time by span name.
  std::map<std::string, double> self_ms;
  /// Summed inclusive duration and count of spans by name.
  std::map<std::string, double> inclusive_ms;
  std::map<std::string, uint64_t> count;
};

/// Layer a span belongs to: the benchmark spans carry it as their first
/// name component; library spans map by name (materialize and shard/merge
/// spans are `parallel`, the stream snapshot is `stream`, everything else
/// the miners open is `core`).
std::string LayerOf(const std::string& span_name);

/// Splits the last `kOpSpan` recorded in the global tracer.
LayerSplit SplitLastOp();

/// Aggregate of traced/untraced repetitions of one operation.
class TraceAccounting {
 public:
  void AddUntraced(double ms) { untraced_ms_.push_back(ms); }
  void AddTraced(const LayerSplit& split) { splits_.push_back(split); }
  /// Median over traced reps of a span's inclusive / self time, and of the
  /// per-rep span count.
  double InclusiveMs(const std::string& span) const;
  double SelfMs(const std::string& span) const;
  double Count(const std::string& span) const;
  /// Emits `<prefix>.traced_ms`, `<prefix>.untraced_ms`, one
  /// `<prefix>.layer.<layer>_pct` per entry of `layers` plus
  /// `<prefix>.layer.unspanned_pct`, `<prefix>.accounting_gap_pct` and
  /// `obs.trace_overhead_pct.<prefix>`; checks that the layers plus the
  /// remainder account for the untraced time within `kAccountingShare`.
  void Emit(const std::string& prefix, const std::vector<std::string>& layers,
            Report* report) const;

  /// Largest accepted gap between the traced layer sum and the untraced
  /// end-to-end median, as a share of the latter.
  static constexpr double kAccountingShare = 0.25;

 private:
  std::vector<double> untraced_ms_;
  std::vector<LayerSplit> splits_;
};

/// Runs `op(traced)` repeatedly: `warmup` untraced calls, then alternating
/// untraced and traced calls until `budget_s` has elapsed (at least
/// `min_pairs` pairs), feeding `accounting`. Obs state is reset before
/// every call; each call's return value goes to `check` afterwards, while
/// the call's metrics are still in the registry.
template <typename Op, typename Check>
void RunTracedPairs(double budget_s, int warmup, int min_pairs, Op&& op,
                    Check&& check, TraceAccounting* accounting) {
  for (int i = 0; i < warmup; ++i) {
    ResetObs();
    check(op(false));
  }
  const double deadline = NowSeconds() + budget_s;
  for (int pair = 0; pair < min_pairs || NowSeconds() < deadline; ++pair) {
    ResetObs();
    const double start = NowSeconds();
    auto out = op(false);
    accounting->AddUntraced((NowSeconds() - start) * 1e3);
    check(out);
    ResetObs();
    out = op(true);
    accounting->AddTraced(SplitLastOp());
    check(out);
  }
}

/// Times one call of `op()` in ms, after resetting obs state; its return
/// value goes to `check` outside the timed window.
template <typename Op, typename Check>
double TimeOnceMs(Op&& op, Check&& check) {
  ResetObs();
  const double start = NowSeconds();
  auto out = op();
  const double ms = (NowSeconds() - start) * 1e3;
  check(out);
  return ms;
}

/// Runs `op()` `warmup` times untimed, then times it until `budget_s` has
/// elapsed (at least `min_reps` times). Returns the per-call wall times in
/// ms.
template <typename Op>
std::vector<double> TimeLoopMs(double budget_s, int warmup, int min_reps,
                               Op&& op) {
  const auto ignore = [](const auto&) {};
  for (int i = 0; i < warmup; ++i) {
    ResetObs();
    op();
  }
  std::vector<double> times;
  const double deadline = NowSeconds() + budget_s;
  while (static_cast<int>(times.size()) < min_reps || NowSeconds() < deadline) {
    times.push_back(TimeOnceMs(op, ignore));
  }
  return times;
}

/// Median of `fn()`'s values over `reps` calls, for set-up timing.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double start = NowSeconds();
    fn();
    times.push_back(NowSeconds() - start);
  }
  return MedianOf(times);
}

/// One scenario of the benchmark (scenario_*.cc). Construction does the
/// set-up (timed, median of several) plus the untimed reference results
/// and warm-up calls the checks need.
class Scenario {
 public:
  Scenario() = default;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  virtual ~Scenario() = default;
  /// Median wall time of one set-up.
  virtual double setup_s() const = 0;
  /// One timed call of each end-to-end operation; the end-to-end run
  /// interleaves the rounds of all scenarios, so every operation samples
  /// the whole run.
  virtual void Round() = 0;
  /// Emits the end-to-end metrics of the rounds so far and runs the checks
  /// kept for after the timed loop.
  virtual void Finish() = 0;
  /// The traced run: per-layer metrics within about `budget_s`.
  virtual void Trace(double budget_s) = 0;
};

std::unique_ptr<Scenario> MakeTable1(const Args& args, Report* report);
std::unique_ptr<Scenario> MakeLongPatterns(const Args& args, Report* report);
std::unique_ptr<Scenario> MakePeriodRange(const Args& args, Report* report);
std::unique_ptr<Scenario> MakeServeMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
