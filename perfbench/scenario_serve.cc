// Served mining: an in-process `PatternServer` (2 workers, wal_fsync=always,
// the daemon's shipped flush policy) holding 4 series of 200k instants, and
// 2 closed-loop clients. Each owns two of the series and repeats a cycle of
// 50 queries (alternating over its series), 1 append of 1,000 instants to
// one of them (a continuation from the series' own generator, so no new
// feature names) and 1 forced mine of the other. An append invalidates the
// cached result, so the next query on that series is a `stream` refresh;
// appends pay the WAL. The clients step in a fixed, staggered order (see
// `RunClients`). Each round also times one put of a spare series.

#include <barrier>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/hitset_miner.h"
#include "harness.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/series_store.h"
#include "service/server.h"
#include "service/wire.h"
#include "stream/continuous_miner.h"
#include "tsdb/series_source.h"

namespace perfbench {
namespace {

namespace service = ppm::service;
namespace wire = ppm::service::wire;
using ppm::bench::DieOr;

constexpr int kSeries = 4;
constexpr uint64_t kInitial = 200000;
constexpr uint64_t kChunk = 1000;
/// Continuation chunks generated per series; an append step is skipped once
/// its series has used all of them.
constexpr uint64_t kChunksPerSeries = 60;
constexpr int kClients = 2;
constexpr int kQueriesPerCycle = 50;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kPeriod = 50;
constexpr double kMinConf = 0.8;
constexpr int kSetupReps = 3;
/// Cycles each client runs per round of the end-to-end run, and steps per
/// cycle (queries, append, mine).
constexpr int kCyclesPerRound = 5;
constexpr int kStepsPerCycle = 3;
/// Step kinds, and their order per client (see `RunClients`).
constexpr int kQueries = 0;
constexpr int kAppend = 1;
constexpr int kMine = 2;
constexpr int kStepOrder[kClients][kStepsPerCycle] = {
    {kQueries, kMine, kAppend}, {kMine, kQueries, kAppend}};
/// Served results kept per client for the field-identity check, and how
/// often one is taken.
constexpr size_t kSamplesPerClient = 6;
constexpr uint64_t kSampleQueryEvery = 211;
constexpr uint64_t kSampleMineEvery = 5;

const char kSocket[] = "ppmd.sock";
const char kRoot[] = "ppmd_root";

struct SeriesData {
  std::string name;
  /// The whole generated series: the put prefix plus the continuation the
  /// appends replay, so any served (length) snapshot is a prefix of it.
  ppm::tsdb::TimeSeries full;
  ppm::tsdb::TimeSeries initial;
};

std::vector<SeriesData> Generate(uint64_t seed) {
  std::vector<SeriesData> data(kSeries);
  for (int i = 0; i < kSeries; ++i) {
    data[i].name = "s" + std::to_string(i);
    data[i].full = DieOr(ppm::synth::GenerateSeries(ppm::bench::Figure2Options(
                             kInitial + kChunksPerSeries * kChunk, 8,
                             InputSeed(seed, 10 + i))))
                       .series;
    data[i].initial.symbols() = data[i].full.symbols();
    for (uint64_t t = 0; t < kInitial; ++t) {
      data[i].initial.Append(data[i].full.at(t));
    }
  }
  return data;
}

/// Continuation chunk `k` of `series` as feature-name lists.
std::vector<std::vector<std::string>> ChunkNames(const SeriesData& series,
                                                 uint64_t k) {
  std::vector<std::vector<std::string>> instants(kChunk);
  for (uint64_t i = 0; i < kChunk; ++i) {
    series.full.at(kInitial + k * kChunk + i).ForEach([&](uint32_t id) {
      instants[i].push_back(series.full.symbols().NameOrPlaceholder(id));
    });
  }
  return instants;
}

wire::Request MineRequest(wire::Op op, const std::string& name) {
  wire::Request request;
  request.op = op;
  request.name = name;
  request.period = kPeriod;
  request.min_confidence = kMinConf;
  return request;
}

/// Patterns one per line with names, count and exact confidence; the same
/// text for a batch result and a wire response means field identity.
std::string Serialize(const ppm::MiningResult& result,
                      const ppm::tsdb::SymbolTable& symbols) {
  std::string out;
  for (const ppm::FrequentPattern& fp : result.patterns()) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "\t%llu\t%.17g\n",
                  static_cast<unsigned long long>(fp.count), fp.confidence);
    out += fp.pattern.Format(symbols) + buffer;
  }
  return out;
}

std::string SerializeWire(const wire::Response& response) {
  ppm::tsdb::SymbolTable symbols;
  for (const std::string& name : response.symbols) symbols.Intern(name);
  ppm::MiningResult result;
  for (const wire::WirePattern& wp : response.patterns) {
    ppm::Pattern pattern(response.period);
    for (const auto& [position, feature] : wp.letters) {
      pattern.AddLetter(position, feature);
    }
    result.patterns().push_back({pattern, wp.count, wp.confidence});
  }
  return Serialize(result, symbols);
}

/// A served result to check against a batch mine of the same snapshot.
struct Sample {
  int series = 0;
  uint64_t length = 0;
  std::string served;
};

/// What one closed-loop client saw.
struct ClientLog {
  std::vector<double> query_us;
  std::vector<double> append_ms;
  std::vector<double> mine_ms;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
};

uint64_t Delta(const ppm::obs::MetricsSnapshot& after,
               const ppm::obs::MetricsSnapshot& before, const char* name) {
  const uint64_t* a = after.FindCounter(name);
  const uint64_t* b = before.FindCounter(name);
  return (a == nullptr ? 0 : *a) - (b == nullptr ? 0 : *b);
}

template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double start = NowSeconds();
    fn();
    times.push_back((NowSeconds() - start) * 1e6);
  }
  return MedianOf(times);
}

class ServeScenario : public Scenario {
 public:
  /// Set-up (input generation, server start, client connections; timed,
  /// median of `kSetupReps`), then the initial puts (timed into
  /// `put_p50_ms`), then one untimed query per series so every cache entry
  /// is resident.
  ServeScenario(const Args& args, Report* report)
      : args_(args), report_(report), logs_(kClients), cycles_(kClients, 0) {
    setup_s_ = MedianSeconds(kSetupReps, [this] {
      Stop();
      std::filesystem::remove_all(kRoot);
      data_ = Generate(args_.seed);
      next_chunk_.assign(kSeries, 0);
      service::ServerOptions options;
      options.socket_path = kSocket;
      options.num_workers = kWorkers;
      options.service.wal_fsync = ppm::tsdb::WalFsync::kAlways;
      server_ = DieOr(service::PatternServer::Start(kRoot, options));
      for (int c = 0; c < kClients; ++c) {
        clients_.push_back(
            DieOr(service::Client::ConnectWithRetry(kSocket, 5000)));
      }
    });
    for (int i = 0; i < kSeries; ++i) Put(i, data_[i]);
    for (int i = 0; i < kSeries; ++i) {
      report_->Check(
          Call(0, MineRequest(wire::Op::kQuery, data_[i].name)).has_value(),
          "serve: warm-up query failed");
    }
  }

  ~ServeScenario() override { Stop(); }

  double setup_s() const override { return setup_s_; }

  /// A timed put of the spare series (never queried), then both clients
  /// run `kCyclesPerRound` cycles concurrently, closed loop.
  void Round() override {
    Put(kSeries, data_[0]);
    RunClients(kCyclesPerRound, 0);
  }

  void Finish() override {
    const ClientLog all = Merged();
    report_->Metric("put_p50_ms", MedianOf(put_ms_), "ms");
    report_->Metric("query_p50_us", MedianOf(all.query_us), "us");
    report_->Metric("mine_p50_ms", MedianOf(all.mine_ms), "ms");
    CountAndCheck();
  }

  void Trace(double budget_s) override {
    // Counter deltas over the concurrent closed loop.
    const ppm::obs::MetricsSnapshot before =
        ppm::obs::MetricsRegistry::Global().Snapshot();
    RunClients(0, 0.4 * budget_s);
    const ppm::obs::MetricsSnapshot after =
        ppm::obs::MetricsRegistry::Global().Snapshot();
    // The write path and the query tail follow the drift of the WAL disk
    // (fsync latency) too closely for an end-to-end bound, so they are
    // reported here. Each client's refresh query is 2 % of its queries, so
    // the 99th percentile is about the median refresh.
    const ClientLog all = Merged();
    report_->Metric("service.append_p50_ms", MedianOf(all.append_ms), "ms");
    report_->Metric("service.ops_per_s",
                    static_cast<double>(all.ops) / loop_s_, "1/s");
    report_->Metric("service.query_p99_us", Quantile(all.query_us, 0.99),
                    "us");
    const uint64_t appends = all.append_ms.size();
    const double n = appends > 0 ? static_cast<double>(appends) : 1.0;
    report_->Metric("tsdb.wal.fsyncs_per_append",
                    Delta(after, before, "ppm.wal.fsyncs") / n,
                    "fsyncs/append");
    report_->Metric("tsdb.wal.bytes_per_instant",
                    Delta(after, before, "ppm.wal.append_bytes") / (n * kChunk),
                    "bytes/instant");
    const double hits = Delta(after, before, "ppm.server.cache.hits");
    const double lookups = hits +
                           Delta(after, before, "ppm.server.cache.misses") +
                           Delta(after, before, "ppm.server.cache.refreshes");
    report_->Metric("service.cache.hit_ratio",
                    lookups > 0 ? hits / lookups : 0.0, "share");
    const uint64_t rejected =
        Delta(after, before, "ppm.server.admission.rejected") +
        Delta(after, before, "ppm.server.rejected");
    report_->Metric("service.admission.rejected", rejected, "count");
    report_->Check(rejected == 0, "serve: admission rejected a request");

    // One client, cycles alternating untraced and traced, so server-side
    // spans nest under the one call that caused them.
    TraceAccounting accounting;
    RunTracedPairs(
        0.35 * budget_s, 1, 2,
        [&](bool traced) { return Cycle(0, traced); },
        [&](uint64_t failed) { logs_[0].failed += failed; }, &accounting);
    accounting.Emit("serve.cycle", {"service", "stream", "core"}, report_);
    LayerProbes(report_);
    CountAndCheck();
  }

 private:
  /// Every client's samples and request count in one log.
  ClientLog Merged() const {
    ClientLog all;
    for (const ClientLog& log : logs_) {
      all.query_us.insert(all.query_us.end(), log.query_us.begin(),
                          log.query_us.end());
      all.append_ms.insert(all.append_ms.end(), log.append_ms.begin(),
                           log.append_ms.end());
      all.mine_ms.insert(all.mine_ms.end(), log.mine_ms.begin(),
                         log.mine_ms.end());
      all.ops += log.ops;
    }
    return all;
  }

  /// Puts `data.initial` as series `s<index>`, timed into `put_ms_`.
  void Put(int index, const SeriesData& data) {
    wire::Request request;
    request.op = wire::Op::kPut;
    request.name = "s" + std::to_string(index);
    request.series = data.initial;
    const double start = NowSeconds();
    const bool ok = Call(0, request).has_value();
    put_ms_.push_back((NowSeconds() - start) * 1e3);
    report_->Check(ok, "serve: put failed");
  }

  /// A successful response, or nullopt (also on a non-OK status).
  std::optional<wire::Response> Call(int c, const wire::Request& request) {
    ppm::Result<wire::Response> response = clients_[c]->Call(request);
    if (!response.ok() || response->code != 0) {
      std::fprintf(stderr, "perfbench: serve call failed: %s\n",
                   response.ok() ? response->message.c_str()
                                 : response.status().ToString().c_str());
      return std::nullopt;
    }
    return std::move(response).value();
  }

  /// Runs both clients concurrently, closed loop, for `cycles` cycles each
  /// or, when 0, until `seconds` have passed; adds the wall time to the loop
  /// time. The clients meet at a barrier after each step, in the orders of
  /// `kStepOrder`: while client 0 queries, client 1 mines; then the
  /// reverse; then both append. So each client's queries, its refresh
  /// query included, run beside the other's mine, the appends pay the WAL
  /// side by side, and no run depends on how two free-running clients drift
  /// in phase.
  void RunClients(int cycles, double seconds) {
    ppm::obs::Tracer::Global().Clear();
    const double start = NowSeconds();
    const double deadline = start + seconds;
    uint64_t steps = 0;
    bool stop = false;
    // Runs once per barrier phase, while both clients wait.
    const auto on_step = [&]() noexcept {
      ++steps;
      if (steps % kStepsPerCycle == 0 &&
          (cycles > 0 ? steps >= kStepsPerCycle * static_cast<uint64_t>(cycles)
                      : NowSeconds() >= deadline)) {
        stop = true;
      }
    };
    std::barrier sync(kClients, on_step);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &sync, &stop] {
        for (int i = 0; !stop; ++i) {
          logs_[c].failed +=
              Step(c, kStepOrder[c][i % kStepsPerCycle], false, &logs_[c]);
          if (i % kStepsPerCycle == kStepsPerCycle - 1) ++cycles_[c];
          sync.arrive_and_wait();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    loop_s_ += NowSeconds() - start;
  }

  /// Series `k` (0 or 1) of client `c`. Each client owns two series: its
  /// queries alternate between them, and it is the only one appending to
  /// them, so every served snapshot is a prefix of the generated series.
  static int OwnSeries(int c, uint64_t k) {
    return c + kClients * static_cast<int>(k % 2);
  }

  /// One client's cycle, its steps in client 0's order (one client, no
  /// barrier).
  uint64_t Cycle(int c, bool traced) {
    BenchSpan op(traced, kOpSpan);
    uint64_t failed = 0;
    for (const int step : kStepOrder[0]) {
      failed += Step(c, step, traced, &logs_[c]);
    }
    ++cycles_[c];
    return failed;
  }

  /// One step of client `c`'s current cycle: `kQueries` alternating over
  /// its two series, `kAppend` to one of them, or `kMine` (forced) of the
  /// other. The first query on the appended series afterwards is a
  /// `stream` refresh. Returns failed calls; with `traced`, a benchmark
  /// span wraps each call.
  uint64_t Step(int c, int step, bool traced, ClientLog* log) {
    const uint64_t cycle = cycles_[c];
    uint64_t failed = 0;
    if (step == kQueries) {
      for (int q = 0; q < kQueriesPerCycle; ++q) {
        const int s = OwnSeries(c, q);
        const double start = NowSeconds();
        std::optional<wire::Response> response;
        {
          BenchSpan span(traced, "service.query");
          response = Call(c, MineRequest(wire::Op::kQuery, data_[s].name));
        }
        log->query_us.push_back((NowSeconds() - start) * 1e6);
        ++log->ops;
        if (!response) {
          ++failed;
        } else if (log->query_us.size() % kSampleQueryEvery == 1) {
          Keep(s, *response, log);
        }
      }
    } else if (step == kAppend) {
      const int s = OwnSeries(c, cycle);
      if (next_chunk_[s] >= kChunksPerSeries) return 0;
      wire::Request append;
      append.op = wire::Op::kAppend;
      append.name = data_[s].name;
      append.instants = ChunkNames(data_[s], next_chunk_[s]);
      const double start = NowSeconds();
      {
        BenchSpan span(traced, "service.append");
        if (!Call(c, append)) ++failed;
      }
      log->append_ms.push_back((NowSeconds() - start) * 1e3);
      ++next_chunk_[s];
      ++log->ops;
    } else {
      const int s = OwnSeries(c, cycle + 1);
      const double start = NowSeconds();
      std::optional<wire::Response> mined;
      {
        BenchSpan span(traced, "service.mine");
        mined = Call(c, MineRequest(wire::Op::kMine, data_[s].name));
      }
      log->mine_ms.push_back((NowSeconds() - start) * 1e3);
      ++log->ops;
      if (!mined) {
        ++failed;
      } else if (log->mine_ms.size() % kSampleMineEvery == 1) {
        Keep(s, *mined, log);
      }
    }
    return failed;
  }

  void Keep(int s, const wire::Response& response, ClientLog* log) {
    if (log->samples.size() >= kSamplesPerClient) return;
    log->samples.push_back({s, response.length, SerializeWire(response)});
  }

  /// Counts every logged request with its failures, then checks every kept
  /// sample against `MineHitSet` on the same snapshot.
  void CountAndCheck() {
    for (const ClientLog& log : logs_) {
      report_->Count(log.ops, log.failed, "serve: requests failed");
      for (const Sample& sample : log.samples) {
        const SeriesData& series = data_[sample.series];
        const bool in_range = sample.length >= kInitial &&
                              sample.length <= series.full.length() &&
                              (sample.length - kInitial) % kChunk == 0;
        report_->Check(in_range, "serve: served length is not a snapshot");
        if (!in_range) continue;
        ppm::tsdb::TimeSeries prefix;
        prefix.symbols() = series.full.symbols();
        for (uint64_t t = 0; t < sample.length; ++t) {
          prefix.Append(series.full.at(t));
        }
        ppm::MiningOptions options;
        options.period = kPeriod;
        options.min_confidence = kMinConf;
        ppm::tsdb::InMemorySeriesSource source(&prefix);
        const ppm::MiningResult batch =
            DieOr(ppm::MineHitSet(source, options));
        report_->Check(Serialize(batch, prefix.symbols()) == sample.served,
                       "serve: served result differs from a batch mine of "
                       "its snapshot");
      }
    }
  }

  /// Direct calls into the layers under the server: the service without
  /// the socket, the wire encoder, the store's append, and the incremental
  /// miner.
  void LayerProbes(Report* report);

  void Stop() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->RequestStop();
      server_->Wait();
      server_.reset();
    }
  }

  const Args& args_;
  Report* report_;
  double setup_s_ = 0;
  std::vector<SeriesData> data_;
  /// Next continuation chunk per series; each entry is touched by the one
  /// client that appends to that series.
  std::vector<uint64_t> next_chunk_;
  std::unique_ptr<service::PatternServer> server_;
  std::vector<std::unique_ptr<service::Client>> clients_;
  std::vector<double> put_ms_;
  /// Per client: what it saw, and its next cycle number.
  std::vector<ClientLog> logs_;
  std::vector<uint64_t> cycles_;
  double loop_s_ = 0;
};

void ServeScenario::LayerProbes(Report* report) {
  const SeriesData& s0 = data_[0];
  service::QueryRequest direct;
  direct.series = s0.name;
  direct.period = kPeriod;
  direct.min_confidence = kMinConf;
  service::MineService& mine_service = server_->service();
  report->Check(mine_service.Query(direct).ok(), "serve: direct query failed");
  const double direct_us = MedianUs(300, [&] {
    if (!mine_service.Query(direct).ok()) report->Check(false, "direct query");
  });
  std::optional<wire::Response> response;
  const double client_us = MedianUs(300, [&] {
    response = Call(0, MineRequest(wire::Op::kQuery, s0.name));
  });
  report->Check(response.has_value(), "serve: probe query failed");
  report->Metric("service.query_direct_us", direct_us, "us");
  report->Metric("service.transport_us", client_us - direct_us, "us");
  if (response) {
    std::string encoded;
    report->Metric("service.wire.encode_response_us", MedianUs(300, [&] {
                     encoded = wire::EncodeResponse(*response, 2);
                   }),
                   "us");
    report->Metric("service.wire.response_bytes",
                   static_cast<double>(encoded.size()), "bytes");
  }

  // SeriesStore::Append on a store of its own, same fsync policy.
  std::filesystem::remove_all("probe_store");
  service::SeriesStore::Options store_options;
  store_options.wal_fsync = ppm::tsdb::WalFsync::kAlways;
  std::unique_ptr<service::SeriesStore> store =
      DieOr(service::SeriesStore::Open("probe_store", store_options));
  ppm::bench::DieIf(store->Put(s0.name, s0.initial));
  std::vector<double> append_ms;
  for (uint64_t k = 0; k < 5; ++k) {
    const auto names = ChunkNames(s0, k);
    const double start = NowSeconds();
    report->Check(store->Append(s0.name, names).ok(),
                  "serve: store append failed");
    append_ms.push_back((NowSeconds() - start) * 1e3);
  }
  report->Metric("tsdb.store.append_ms", MedianOf(append_ms), "ms");
  store.reset();
  std::filesystem::remove_all("probe_store");

  // ContinuousMiner seeded from the 200k prefix, fed the same deltas.
  ppm::MiningOptions options;
  options.period = kPeriod;
  options.min_confidence = kMinConf;
  std::unique_ptr<ppm::stream::ContinuousMiner> miner =
      DieOr(ppm::stream::ContinuousMiner::SeedFromPrefix(options, s0.initial));
  std::vector<double> append_us, snapshot_ms;
  for (uint64_t k = 0; k < 5; ++k) {
    double start = NowSeconds();
    for (uint64_t i = 0; i < kChunk; ++i) {
      miner->Append(s0.full.at(kInitial + k * kChunk + i));
    }
    append_us.push_back((NowSeconds() - start) * 1e6 / kChunk);
    start = NowSeconds();
    const ppm::MiningResult snapshot = miner->Snapshot();
    snapshot_ms.push_back((NowSeconds() - start) * 1e3);
    report->Check(!snapshot.empty(), "serve: empty stream snapshot");
  }
  report->Metric("stream.append_us_per_instant", MedianOf(append_us), "us");
  report->Metric("stream.snapshot_ms", MedianOf(snapshot_ms), "ms");
}

}  // namespace

std::unique_ptr<Scenario> MakeServeMixed(const Args& args, Report* report) {
  return std::make_unique<ServeScenario>(args, report);
}

}  // namespace perfbench
