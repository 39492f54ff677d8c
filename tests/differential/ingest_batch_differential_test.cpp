// Ingest-batch differential suite: ReputationService::ingest_batch() is the
// one ingest path, so however a stream is cut into calls — and whichever
// calls block or give up at a full queue — the service must see the same
// record stream as a per-rating ingest() run. 100 seeded collusion traces
// (trace_gen.h, with invalid ratings mixed in) are replayed twice, once
// rating by rating and once in random batches of random admission, and the
// two durable directories (WAL, checkpoint and meta files) plus the
// report logs must be byte-identical. The seeds cover global scope at 1-4
// shards with rating-count, tick and combined cadences, and per-shard
// scope; a small queue capacity makes the non-blocking calls stop at full
// queues and resume from their consumed prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "tests/differential/trace_gen.h"
#include "util/rng.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::Rating;

/// The trace with a self-rating and an out-of-range ratee spliced in at
/// seeded positions: both runs must skip the same invalid entries.
std::vector<Rating> stream_for(const testgen::Trace& t, std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 1);
  std::vector<Rating> out;
  out.reserve(t.ratings.size() + t.ratings.size() / 32);
  for (const Rating& r : t.ratings) {
    out.push_back(r);
    if (rng.chance(1.0 / 64)) {
      const auto id = static_cast<rating::NodeId>(rng.next_below(t.n));
      out.push_back(rng.chance(0.5)
                        ? Rating{id, id, rating::Score::kPositive, r.time}
                        : Rating{id, static_cast<rating::NodeId>(t.n),
                                 rating::Score::kPositive, r.time});
    }
  }
  return out;
}

ServiceConfig config_for_seed(const testgen::Trace& t, std::uint64_t seed,
                              const fs::path& dir) {
  ServiceConfig cfg;
  cfg.num_nodes = t.n;
  cfg.num_shards = 1 + seed % 4;
  cfg.epoch_scope = seed % 5 == 0 ? EpochScope::kPerShard : EpochScope::kGlobal;
  // Cadence: rating count, virtual time, or both.
  cfg.epoch_ratings = seed % 3 == 1 ? 0 : 97 + seed % 113;
  cfg.epoch_ticks = seed % 3 == 0 ? 0 : 130 + seed % 71;
  cfg.detector_config = testgen::config_for(seed);
  cfg.queue_capacity = 8;
  cfg.epoch_scan_threads = 1;
  cfg.wal_dir = dir.string();
  cfg.checkpoint_every_epochs = 2;
  return cfg;
}

/// Every file the run left behind, by name.
std::map<std::string, std::string> read_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

struct RunResult {
  std::string report_log;
  std::map<std::string, std::string> files;
  std::size_t rejected = 0;
};

RunResult finish(ReputationService& svc, const fs::path& dir) {
  svc.force_epoch();
  svc.drain();
  RunResult out;
  out.report_log = svc.report_log();
  out.rejected = svc.metrics().ratings_rejected;
  svc.stop();
  out.files = read_dir(dir);
  return out;
}

RunResult per_rating_run(const ServiceConfig& cfg,
                         const std::vector<Rating>& stream) {
  ReputationService svc(cfg);
  for (const Rating& r : stream) (void)svc.ingest(r);
  return finish(svc, cfg.wal_dir);
}

/// Random batch lengths (1..64) and random admission; a non-blocking call
/// that stops at a full queue is resumed at its consumed prefix.
RunResult batched_run(const ServiceConfig& cfg,
                      const std::vector<Rating>& stream, std::uint64_t seed) {
  ReputationService svc(cfg);
  util::Rng rng(seed ^ 0x5bd1e995u);
  const std::span<const Rating> all(stream);
  std::size_t pos = 0;
  while (pos < all.size()) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(64), all.size() - pos);
    const Admission admission =
        rng.chance(0.5) ? Admission::kBlock : Admission::kNoWait;
    const IngestResult res = svc.ingest_batch(all.subspan(pos, len), admission);
    const std::size_t consumed = res.accepted + res.rejected;
    EXPECT_NE(res.stop, IngestResult::Stop::kStopped);
    if (res.stop == IngestResult::Stop::kFull) {
      EXPECT_EQ(admission, Admission::kNoWait);
      EXPECT_LT(consumed, len);
      std::this_thread::yield();
    } else {
      EXPECT_EQ(consumed, len);
    }
    pos += consumed;
  }
  return finish(svc, cfg.wal_dir);
}

TEST(IngestBatchDifferentialTest, HundredSeedsMatchPerRatingIngest) {
  const fs::path dir = fs::temp_directory_path() / "p2prep_ingest_batch_diff";
  fs::remove_all(dir);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const testgen::Trace t = testgen::make_trace(seed);
    const std::vector<Rating> stream = stream_for(t, seed);
    const fs::path want_dir = dir / "per_rating";
    const fs::path got_dir = dir / "batched";
    fs::create_directories(want_dir);
    fs::create_directories(got_dir);

    const RunResult want =
        per_rating_run(config_for_seed(t, seed, want_dir), stream);
    const RunResult got =
        batched_run(config_for_seed(t, seed, got_dir), stream, seed);

    ASSERT_FALSE(want.report_log.empty()) << "seed " << seed;
    ASSERT_EQ(got.report_log, want.report_log) << "seed " << seed;
    EXPECT_EQ(got.rejected, want.rejected) << "seed " << seed;
    EXPECT_EQ(want.rejected, stream.size() - t.ratings.size())
        << "seed " << seed;
    ASSERT_TRUE(want.files.contains("shard-000.ckpt")) << "seed " << seed;
    ASSERT_EQ(got.files.size(), want.files.size()) << "seed " << seed;
    for (const auto& [name, bytes] : want.files) {
      const auto it = got.files.find(name);
      ASSERT_NE(it, got.files.end()) << "seed " << seed << " " << name;
      ASSERT_EQ(it->second, bytes) << "seed " << seed << " " << name;
    }
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace p2prep::service
