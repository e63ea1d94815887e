// Byte-identity pins for what a user reads back from a long-pattern mine:
// `ppm mine --top 0` stdout, a saved pattern file, the full rule list and a
// served query response, each as size + CRC-32C. The input is the long
// shape (|F1| = 20, MAX-PAT-LENGTH 16: 65,539 patterns) at a length sized
// for ctest. A change to pattern storage, ordering or formatting must keep
// every byte; a deliberate output change updates the constants.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "cli/commands.h"
#include "core/miner.h"
#include "rules/rules.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "tsdb/series_codec.h"
#include "util/crc32c.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

struct Pin {
  size_t size = 0;
  uint32_t crc = 0;
};

Pin PinOf(const std::string& bytes) {
  return {bytes.size(), crc32c::Value(bytes)};
}

class GoldenOutputTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/golden_output_" +
                           std::to_string(::getpid()));
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    std::ostringstream out, err;
    ASSERT_EQ(cli::RunCli({"generate", "--output", SeriesPath(), "--length",
                           "20000", "--period", "50", "--num-f1", "20",
                           "--max-pat-length", "16", "--seed", "7"},
                          out, err),
              0)
        << err.str();
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string SeriesPath() { return *dir_ + "/long.ppmts"; }

  /// Runs `ppm mine` on the long input with `extra` flags; returns stdout.
  static std::string RunMine(const std::vector<std::string>& extra) {
    std::vector<std::string> args = {"mine",       "--input", SeriesPath(),
                                     "--period",   "50",      "--min-conf",
                                     "0.8"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::ostringstream out, err;
    EXPECT_EQ(cli::RunCli(args, out, err), 0) << err.str();
    return out.str();
  }

  static std::string* dir_;
};

std::string* GoldenOutputTest::dir_ = nullptr;

TEST_F(GoldenOutputTest, MineStdoutIsPinned) {
  const std::string out = RunMine({"--top", "0"});
  EXPECT_EQ(out.rfind("period=50 m=400 |F1|=20 scans=2 patterns=65539\n", 0),
            0u);
  const Pin pin = PinOf(out);
  EXPECT_EQ(pin.size, 8913326u);
  EXPECT_EQ(pin.crc, 0xad3a7b1bu);
}

TEST_F(GoldenOutputTest, SavedPatternFileIsPinned) {
  const std::string path = *dir_ + "/long.patterns";
  RunMine({"--top", "1", "--save", path});
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const Pin pin = PinOf(bytes);
  EXPECT_EQ(pin.size, 8126823u);
  EXPECT_EQ(pin.crc, 0xd7ae3cd8u);
}

TEST_F(GoldenOutputTest, RulesOutputIsPinned) {
  const auto series = tsdb::ReadBinarySeries(SeriesPath());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  MiningOptions options;
  options.period = 50;
  options.min_confidence = 0.8;
  const auto mined = Mine(*series, options);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const auto rules = rules::GenerateRules(*mined, 0.9);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  // Every rule, one per line as `ppm mine --rules --top 0` prints it,
  // folded into the CRC without holding the whole text.
  size_t size = 0;
  uint32_t crc = 0;
  for (const rules::PeriodicRule& rule : *rules) {
    const std::string line = "  " + rule.Format(series->symbols()) + "\n";
    size += line.size();
    crc = crc32c::Extend(crc, line.data(), line.size());
  }
  EXPECT_EQ(rules->size(), 458753u);
  EXPECT_EQ(size, 119636217u);
  EXPECT_EQ(crc, 0xfdcb8e33u);
}

// The miners emit each level already in canonical order, so
// `Canonicalize` is a check on their output; on any other permutation it
// must still sort.
TEST_F(GoldenOutputTest, CanonicalizeSortsAShuffledLongResult) {
  const auto series = tsdb::ReadBinarySeries(SeriesPath());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  MiningOptions options;
  options.period = 50;
  options.min_confidence = 0.8;
  const auto mined = Mine(*series, options);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_EQ(mined->size(), 65539u);
  EXPECT_TRUE(std::is_sorted(mined->patterns().begin(),
                             mined->patterns().end(), CanonicalLess));

  std::mt19937_64 rng(16);
  for (int rep = 0; rep < 2; ++rep) {
    MiningResult copy = *mined;
    std::shuffle(copy.patterns().begin(), copy.patterns().end(), rng);
    copy.Canonicalize();
    ASSERT_EQ(copy.size(), mined->size());
    for (size_t i = 0; i < copy.size(); ++i) {
      const FrequentPattern& x = copy.patterns()[i];
      const FrequentPattern& y = mined->patterns()[i];
      ASSERT_TRUE(x.pattern == y.pattern && x.count == y.count &&
                  x.confidence == y.confidence)
          << "index " << i;
    }
  }
}

TEST_F(GoldenOutputTest, WireQueryResponseIsPinned) {
  service::ServerOptions options;
  options.num_workers = 1;
  options.socket_path = *dir_ + "/s.sock";
  auto server = service::PatternServer::Start(*dir_ + "/db", options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  {
    auto client = service::Client::Connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    service::wire::Request put;
    put.op = service::wire::Op::kPut;
    put.name = "long";
    auto series = tsdb::ReadBinarySeries(SeriesPath());
    ASSERT_TRUE(series.ok()) << series.status().ToString();
    put.series = std::move(*series);
    auto stored = (*client)->Call(put);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ASSERT_EQ(stored->code, 0) << stored->message;

    service::wire::Request query;
    query.op = service::wire::Op::kQuery;
    query.name = "long";
    query.period = 50;
    query.min_confidence = 0.8;
    auto response = (*client)->Call(query);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, 0) << response->message;
    EXPECT_EQ(response->patterns.size(), 65539u);
    const Pin pin = PinOf(service::wire::EncodeResponse(*response, 2));
    EXPECT_EQ(pin.size, 5505861u);
    EXPECT_EQ(pin.crc, 0xa2824a84u);
  }
  (*server)->RequestStop();
  (*server)->Wait();
}

}  // namespace
}  // namespace ppm
