// Global-epoch barrier soak: concurrent producers keep the queues hot
// while the parallel global epoch scans frozen state with every worker
// parked from the barrier to the commit; a resize churner and a
// snapshot/metrics poller race against both. The suite keeps its
// historical name (it once soaked a detection/ingest overlap window)
// because the designated TSan workload selects it by that name
// (tools/run_static_analysis.sh tsan runs ctest -R '...|OverlapStress|...').
// The assertions check ingest conservation — every accepted rating is
// either applied or accounted as dropped, never lost across an epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "service/service.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::Score;

constexpr std::size_t kN = 40;
constexpr int kProducers = 3;
constexpr int kPerProducer = 600;

ServiceConfig stress_config() {
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  cfg.num_shards = 4;
  cfg.queue_capacity = 64;
  cfg.epoch_ratings = 120;  // frequent epochs so barriers recur
  cfg.epoch_scan_threads = 4;
  cfg.detector_config.frequency_min = 20;
  cfg.record_reports = false;
  return cfg;
}

void run_soak(ReputationService& svc, bool resize_churn) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> sent{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&svc, &sent, p] {
      for (int k = 0; k < kPerProducer; ++k) {
        const auto rater = static_cast<rating::NodeId>((p * 13 + k) % kN);
        auto ratee = static_cast<rating::NodeId>((p * 17 + k * 5 + 1) % kN);
        if (ratee == rater)
          ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
        if (svc.ingest({rater, ratee,
                        k % 4 == 0 ? Score::kNegative : Score::kPositive,
                        static_cast<rating::Tick>(k)}))
          sent.fetch_add(1);
      }
    });
  }

  std::thread poller([&svc, &done] {
    std::uint64_t polls = 0;
    while (!done.load()) {
      const ServiceSnapshot snap = svc.snapshot();
      double sum = 0.0;
      for (rating::NodeId i = 0; i < kN; ++i) sum += snap.reputation(i);
      (void)sum;
      (void)svc.metrics();
      if (++polls % 8 == 0) svc.force_epoch();
      std::this_thread::yield();
    }
  });

  std::thread resizer;
  if (resize_churn) {
    resizer = std::thread([&svc, &done] {
      const std::size_t widths[] = {2, 3, 4};
      std::size_t w = 0;
      while (!done.load()) {
        (void)svc.resize(widths[w++ % 3]);
        std::this_thread::yield();
      }
    });
  }

  for (auto& t : producers) t.join();
  done.store(true);
  poller.join();
  if (resizer.joinable()) resizer.join();
  svc.force_epoch();
  svc.drain();

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.ratings_accepted, sent.load());
  EXPECT_EQ(m.ratings_applied + m.ratings_dropped, m.ratings_accepted);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.epochs_completed, 0u);
  EXPECT_GE(m.epoch_scan_threads, 2u);
  svc.stop();
}

TEST(OverlapStressTest, IngestWhileScanning) {
  ReputationService svc(stress_config());
  run_soak(svc, /*resize_churn=*/false);
}

TEST(OverlapStressTest, IngestWhileScanningWithResizeChurn) {
  ReputationService svc(stress_config());
  run_soak(svc, /*resize_churn=*/true);
}

TEST(OverlapStressTest, OverlapWithDurableCheckpoints) {
  // Every second epoch checkpoints, so this run interleaves plain epochs
  // with WAL-rotating ones under load.
  const fs::path dir =
      fs::temp_directory_path() / "p2prep_overlap_stress_ckpt";
  fs::remove_all(dir);
  {
    ServiceConfig cfg = stress_config();
    cfg.wal_dir = dir.string();
    cfg.checkpoint_every_epochs = 2;
    ReputationService svc(cfg);
    run_soak(svc, /*resize_churn=*/false);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace p2prep::service
