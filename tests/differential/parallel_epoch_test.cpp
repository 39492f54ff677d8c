// Parallel-epoch differential suite: 100 seeded collusion traces replayed
// per (shard count, detector) cell under two epoch configurations must
// produce byte-identical detection reports and identical published state:
//   - serial (epoch_scan_threads = 1): the coordinator sweeps alone — the
//     reference;
//   - parallel (3 scan threads).
// Every worker stays parked from the barrier to the commit in both. The
// parallel sweep partitions rows and merges per-range findings in range
// order, and the accomplice exchange converges to the same flagged-set
// fixpoint as the serial walk, so no schedule may ever change a byte of
// output; these tests pin that across the randomized threshold/feature
// mix of trace_gen.h (which flips joint-complement, mutuality and
// accomplice flags per seed).
//
// The durable variant compares the on-disk artifacts raw: unlike the
// reshard suite (where WAL generations legitimately diverge), a parallel
// and a serial run of the same trace at the same width must leave
// byte-identical WAL and checkpoint files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "service/service.h"
#include "tests/differential/trace_gen.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::Rating;

constexpr const char* kDetectors[] = {"basic", "optimized", "ring", "group"};

/// Scan threads of the reference and the parallel epoch configuration.
constexpr std::size_t kSerial = 1;
// A small explicit pool keeps the parallel run cheap while still
// exercising multi-threaded merges.
constexpr std::size_t kParallel = 3;

ServiceConfig make_cfg(const testgen::Trace& t, std::uint64_t seed,
                       std::size_t shards, const std::string& detector,
                       std::size_t scan_threads) {
  ServiceConfig cfg;
  cfg.num_nodes = t.n;
  cfg.num_shards = shards;
  cfg.epoch_ratings = 200;  // several natural cadence epochs per trace
  cfg.detector = detector;
  cfg.detector_config = testgen::config_for(seed);
  cfg.epoch_scan_threads = scan_threads;
  return cfg;
}

struct RunResult {
  std::string report_log;
  std::vector<double> reputations;
  std::vector<bool> suspected;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_trace(const ServiceConfig& cfg, const std::vector<Rating>& load) {
  ReputationService svc(cfg);
  for (const Rating& r : load) EXPECT_TRUE(svc.ingest(r));
  svc.force_epoch();
  svc.drain();
  RunResult out;
  out.report_log = svc.report_log();
  const ServiceSnapshot snap = svc.snapshot();
  out.reputations.resize(cfg.num_nodes);
  out.suspected.resize(cfg.num_nodes);
  for (rating::NodeId i = 0; i < cfg.num_nodes; ++i) {
    out.reputations[i] = snap.reputation(i);
    out.suspected[i] = snap.suspected(i);
  }
  svc.stop();
  return out;
}

class ParallelEpochDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelEpochDifferentialTest, HundredSeedsByteIdenticalToSerial) {
  const std::string detector = GetParam();
  // Each detector owns the seeds whose rotation lands on it, so the four
  // parameterized tests jointly cover all 100 seeds and ctest runs them
  // in parallel.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    if (kDetectors[seed % 4] != detector) continue;
    const testgen::Trace t = testgen::make_trace(seed);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      const RunResult serial =
          run_trace(make_cfg(t, seed, shards, detector, kSerial), t.ratings);
      ASSERT_FALSE(serial.report_log.empty())
          << "seed " << seed << " shards " << shards;
      const RunResult parallel =
          run_trace(make_cfg(t, seed, shards, detector, kParallel), t.ratings);
      ASSERT_EQ(parallel.report_log, serial.report_log)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(parallel.reputations, serial.reputations)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(parallel.suspected, serial.suspected)
          << "seed " << seed << " shards " << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Detectors, ParallelEpochDifferentialTest,
                         ::testing::Values(std::string("basic"),
                                           std::string("optimized"),
                                           std::string("ring"),
                                           std::string("group")),
                         [](const auto& info) { return info.param; });

// --- Durable variant: WAL and checkpoint files must match byte-for-byte ----

class ParallelEpochDurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("p2prep_parallel_epoch_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Every shard-*.{wal,ckpt} file under dir_, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> artifacts()
      const {
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0)
        files.emplace_back(name, slurp(entry.path()));
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(ParallelEpochDurableTest, WalAndCheckpointBytesMatchSerial) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string detector = kDetectors[seed % 4];
    const testgen::Trace t = testgen::make_trace(seed);

    ServiceConfig cfg = make_cfg(t, seed, 4, detector, kSerial);
    cfg.wal_dir = dir_.string();
    // Every second epoch checkpoints, so both runs alternate plain and
    // WAL-rotating epochs within one trace.
    cfg.checkpoint_every_epochs = 2;
    (void)run_trace(cfg, t.ratings);
    const auto serial_files = artifacts();
    fs::remove_all(dir_);

    cfg.epoch_scan_threads = kParallel;
    (void)run_trace(cfg, t.ratings);
    const auto parallel_files = artifacts();
    fs::remove_all(dir_);

    ASSERT_FALSE(serial_files.empty()) << "seed " << seed;
    ASSERT_EQ(parallel_files.size(), serial_files.size()) << "seed " << seed;
    for (std::size_t f = 0; f < serial_files.size(); ++f) {
      EXPECT_EQ(parallel_files[f].first, serial_files[f].first)
          << "seed " << seed;
      EXPECT_EQ(parallel_files[f].second == serial_files[f].second, true)
          << "seed " << seed << " file " << serial_files[f].first
          << " differs between parallel and serial runs";
    }
  }
}

}  // namespace
}  // namespace p2prep::service
