// Concurrency acceptance tests for the RPC front-end, and the designated
// TSan workload for it (tools/run_static_analysis.sh runs
// ctest -R 'ServiceConcurrency|GlobalEquivalence|RpcConcurrency'
// under P2PREP_SANITIZE=thread):
//  * ratings submitted by 4 concurrent TCP clients land byte-identically
//    (same shard checkpoint files) to the same stream ingested directly —
//    the serve path is just a transport, not a semantic fork;
//  * a deliberately saturated service sheds with kRetryLater and clients
//    recover through the hinted backoff without losing a single rating.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rating/types.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "service/service.h"
#include "util/rng.h"

namespace p2prep::rpc {
namespace {

namespace fs = std::filesystem;
using rating::Rating;
using rating::Score;

constexpr std::size_t kNodes = 40;
constexpr std::size_t kShards = 3;
constexpr int kClients = 4;

// All ratings share one tick: shard state is commutative in the rating
// order (pair counts; integer-valued engine sums) EXCEPT the shard's
// last-applied tick, which records whichever rating arrived last. A
// constant tick removes that one order-dependence, so any interleaving of
// the same multiset of ratings must checkpoint byte-identically.
constexpr rating::Tick kTick = 7;

std::vector<Rating> workload(std::size_t count) {
  std::vector<Rating> out;
  out.reserve(count);
  util::Rng rng(0xfeedu);
  while (out.size() < count) {
    const auto rater = static_cast<rating::NodeId>(rng.next_below(kNodes));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(kNodes));
    if (ratee == rater) ratee = (ratee + 1) % kNodes;
    out.push_back({rater, ratee,
                   rng.chance(0.8) ? Score::kPositive : Score::kNegative,
                   kTick});
  }
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

fs::path test_dir(const std::string& leaf) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("p2prep_rpc_concurrency_" +
       std::string(
           ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       "_" + leaf);
  fs::remove_all(dir);
  return dir;
}

service::ServiceConfig durable_config(const fs::path& dir) {
  service::ServiceConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_shards = kShards;
  cfg.epoch_ratings = 1u << 30;  // one epoch, at the final force_epoch()
  cfg.checkpoint_every_epochs = 1;
  cfg.wal_dir = dir.string();
  cfg.record_reports = false;
  return cfg;
}

TEST(RpcConcurrency, MultiClientSubmissionIsByteIdenticalToDirectIngest) {
  const auto ratings = workload(2000);
  const fs::path ref_dir = test_dir("ref");
  const fs::path rpc_dir = test_dir("rpc");

  // Reference: the same stream ingested directly (the serve-replay path).
  {
    service::ReputationService svc(durable_config(ref_dir));
    for (const auto& r : ratings) svc.ingest(r);
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }

  // Four concurrent TCP clients, each submitting an interleaved quarter.
  {
    service::ReputationService svc(durable_config(rpc_dir));
    RpcServer server(svc, RpcServerConfig{});

    std::vector<std::thread> clients;
    std::vector<std::size_t> submitted(kClients, 0);
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RpcClientConfig ccfg;
        ccfg.port = server.port();
        ccfg.backoff_initial_ms = 1;
        ccfg.max_attempts = 64;
        RpcClient client(ccfg);
        ASSERT_TRUE(client.connect());
        for (std::size_t i = static_cast<std::size_t>(c);
             i < ratings.size(); i += kClients) {
          ASSERT_EQ(client.submit_rating_with_retry(ratings[i]).status,
                    Status::kOk);
          ++submitted[static_cast<std::size_t>(c)];
        }
      });
    }
    for (auto& t : clients) t.join();
    std::size_t total = 0;
    for (const auto s : submitted) total += s;
    ASSERT_EQ(total, ratings.size());

    server.shutdown();
    svc.force_epoch();
    svc.drain();
    EXPECT_EQ(svc.metrics().ratings_applied, ratings.size());
    svc.stop();
  }

  // Every shard's checkpoint must match the reference bytewise.
  for (std::size_t s = 0; s < kShards; ++s) {
    std::ostringstream name;
    name << "shard-" << (s < 10 ? "00" : "0") << s << ".ckpt";
    const std::string ref = read_file(ref_dir / name.str());
    const std::string got = read_file(rpc_dir / name.str());
    ASSERT_FALSE(ref.empty()) << name.str() << " missing in reference run";
    EXPECT_EQ(got, ref) << name.str() << " diverged over RPC";
  }

  fs::remove_all(ref_dir);
  fs::remove_all(rpc_dir);
}

TEST(RpcConcurrency, SaturationShedsAndClientsRecoverViaBackoff) {
  // Make the service slow to drain (a global epoch barrier after every
  // single rating) and the admission budget tiny, so concurrent clients
  // are guaranteed to hit kRetryLater and must recover through backoff.
  service::ServiceConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_shards = 2;
  cfg.queue_capacity = 2;
  cfg.epoch_ratings = 1;
  cfg.detector_config.frequency_min = 1000;  // keep epochs cheap
  cfg.record_reports = false;
  service::ReputationService svc(cfg);

  RpcServerConfig scfg;
  scfg.max_inflight = 2;
  scfg.shed_backoff_ms = 2;
  RpcServer server(svc, scfg);

  constexpr int kPerClient = 30;
  std::vector<std::thread> clients;
  std::vector<RpcClientStats> stats(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RpcClientConfig ccfg;
      ccfg.port = server.port();
      ccfg.backoff_initial_ms = 1;
      ccfg.backoff_max_ms = 50;
      ccfg.max_attempts = 1000;
      RpcClient client(ccfg);
      ASSERT_TRUE(client.connect());
      for (int k = 0; k < kPerClient; ++k) {
        const auto rater = static_cast<rating::NodeId>((c * 3 + k) % 16);
        auto ratee = static_cast<rating::NodeId>((c * 5 + k * 7 + 1) % 16);
        if (ratee == rater) ratee = (ratee + 1) % 16;
        const Rating r{rater, ratee, Score::kPositive,
                       static_cast<rating::Tick>(k)};
        ASSERT_EQ(client.submit_rating_with_retry(r).status, Status::kOk);
      }
      stats[static_cast<std::size_t>(c)] = client.stats();
    });
  }
  for (auto& t : clients) t.join();

  // The acceptance bar: at least one shed was observed server-side, at
  // least one client saw it and retried, and no rating was lost.
  EXPECT_GE(server.stats().shed, 1u);
  std::uint64_t sheds_seen = 0;
  std::uint64_t retries = 0;
  for (const auto& st : stats) {
    sheds_seen += st.sheds_seen;
    retries += st.retries;
  }
  EXPECT_GE(sheds_seen, 1u);
  EXPECT_GE(retries, sheds_seen);  // every shed was followed by a retry

  server.shutdown();
  svc.drain();
  const auto m = svc.metrics();
  EXPECT_EQ(m.ratings_accepted, kClients * kPerClient);
  EXPECT_EQ(m.ratings_applied, kClients * kPerClient);
  EXPECT_EQ(m.ratings_dropped, 0u);
  svc.stop();
}

}  // namespace
}  // namespace p2prep::rpc
