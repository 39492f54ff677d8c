// Multi-threaded stress over the service's full surface: concurrent
// producers, a snapshot/metrics poller and epoch forcing. These tests are
// the designated TSan workload (tools/run_tsan_service.sh builds with
// P2PREP_SANITIZE=thread and runs ctest -R ServiceConcurrency); the
// assertions themselves check the ingest-conservation invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"

namespace p2prep::service {
namespace {

using rating::Score;

constexpr std::size_t kN = 30;
constexpr int kProducers = 3;
constexpr int kPerProducer = 400;

ServiceConfig stress_config() {
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  cfg.num_shards = 2;
  cfg.queue_capacity = 64;
  cfg.epoch_ratings = 150;
  cfg.detector_config.frequency_min = 20;
  cfg.record_reports = false;  // unbounded log growth is pointless here
  return cfg;
}

void run_stress(ReputationService& svc) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> sent{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&svc, &sent, p] {
      for (int k = 0; k < kPerProducer; ++k) {
        const auto rater = static_cast<rating::NodeId>((p * 7 + k) % kN);
        auto ratee = static_cast<rating::NodeId>((p * 11 + k * 3 + 1) % kN);
        if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
        if (svc.ingest({rater, ratee,
                        k % 3 == 0 ? Score::kNegative : Score::kPositive,
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
      (void)svc.metrics();  // exercise the metrics path under contention
      if (++polls % 16 == 0) svc.force_epoch();
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  done.store(true);
  poller.join();
  svc.force_epoch();  // heavy dropping may starve the cadence trigger
  svc.drain();

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.ratings_accepted, sent.load());
  EXPECT_EQ(m.ratings_applied + m.ratings_dropped, m.ratings_accepted);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.epochs_completed, 0u);
  EXPECT_GT(m.matrix_bytes, 0u);  // gauge refreshed at epoch boundaries
  svc.stop();
}

TEST(ServiceConcurrencyTest, GlobalScopeUnderContention) {
  ReputationService svc(stress_config());
  run_stress(svc);
}

TEST(ServiceConcurrencyTest, StopRacesWithProducers) {
  ReputationService svc(stress_config());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&svc, p] {
      for (int k = 0; k < kPerProducer; ++k) {
        const auto rater = static_cast<rating::NodeId>((p + k) % kN);
        const auto ratee = static_cast<rating::NodeId>((p + k + 1) % kN);
        if (!svc.ingest({rater, ratee, Score::kPositive,
                         static_cast<rating::Tick>(k)}))
          return;  // service stopped underneath us — expected
      }
    });
  }
  svc.stop();
  for (auto& t : producers) t.join();
  const ServiceMetrics m = svc.metrics();
  EXPECT_LE(m.ratings_applied, m.ratings_accepted);
}

}  // namespace
}  // namespace p2prep::service
