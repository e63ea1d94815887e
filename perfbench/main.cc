// perfbench: runs the repository benchmark's scenarios (table1, long,
// period, serve) in this process and prints the result as one JSON line
// (see perfbench/README.md).
//
//   perfbench --threads N --seed S --seconds T --trace 0|1
//
// Inputs are generated from --seed; files go to the working directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

/// Rounds the end-to-end run makes even when the budget is spent sooner.
constexpr int kMinRounds = 3;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --threads N --seed S "
               "--seconds T --trace 0|1\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--threads") {
      args.threads = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) Usage("flags take one value each");
  if (args.threads == 0 || !(args.seconds > 0)) Usage("bad --threads/--seconds");

  using Factory = std::unique_ptr<perfbench::Scenario> (*)(
      const perfbench::Args&, perfbench::Report*);
  // Scenario, and its share of --seconds in the traced run.
  const std::vector<std::pair<Factory, double>> scenarios = {
      {perfbench::MakeTable1, 0.2},
      {perfbench::MakeLongPatterns, 0.2},
      {perfbench::MakePeriodRange, 0.3},
      {perfbench::MakeServeMixed, 0.3},
  };
  perfbench::Report report;
  if (args.trace) {
    // One scenario at a time, each with its own slice of the budget.
    for (const auto& [make, share] : scenarios) {
      make(args, &report)->Trace(share * args.seconds);
    }
  } else {
    // Every scenario set up first, then rounds of one call of each
    // operation until the budget is spent, so every operation's samples
    // spread over the whole run rather than one stretch of it.
    std::vector<std::unique_ptr<perfbench::Scenario>> all;
    double setup_s = 0;
    for (const auto& entry : scenarios) {
      all.push_back(entry.first(args, &report));
      setup_s += all.back()->setup_s();
    }
    const double deadline = perfbench::NowSeconds() + args.seconds;
    for (int round = 0; round < kMinRounds || perfbench::NowSeconds() < deadline;
         ++round) {
      for (const auto& scenario : all) scenario->Round();
    }
    for (const auto& scenario : all) scenario->Finish();
    report.Metric("setup_s", setup_s, "s");
    report.Metric("rss_peak_mb", perfbench::PeakRssMb(), "MB");
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
