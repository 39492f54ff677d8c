// WAL runs: a shard worker stages the WAL frames of the run it drains and
// writes them with one write (ServiceShard::stage_record / flush_wal).
// These tests pin what coalescing may not change — the file bytes, that
// drain() returns only with every handled frame in the file — and the
// size cap that bounds a run whose queue never drains.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "service/service.h"
#include "service/shard.h"
#include "service/wal.h"
#include "util/rng.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::Rating;
using rating::Score;

constexpr std::size_t kN = 64;

class WalRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("p2prep_wal_run_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
};

Rating random_rating(util::Rng& rng, rating::Tick t) {
  const auto rater = static_cast<rating::NodeId>(rng.next_below(kN));
  auto ratee = static_cast<rating::NodeId>(rng.next_below(kN));
  if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
  return {rater, ratee, rng.chance(0.7) ? Score::kPositive : Score::kNegative,
          t};
}

/// Ratings with an epoch marker every 700 records; long enough that the
/// staged runs cross the write cap more than once.
std::vector<WalRecord> mixed_stream(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<WalRecord> out;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 700 == 699)
      out.push_back(WalRecord::make_marker(++seq));
    else
      out.push_back(WalRecord::make_rating(random_rating(rng, i)));
  }
  return out;
}

TEST_F(WalRunTest, CoalescedRunsWriteTheSameBytesAsPerRecordAppends) {
  const std::vector<WalRecord> stream = mixed_stream(41, 8000);

  {
    WalWriter ref = WalWriter::create(path("ref.wal"), 3, 1, 4);
    for (const WalRecord& rec : stream) ref.append(rec);
  }
  {
    // WalWriter level: frames concatenated into runs cut at random points.
    util::Rng rng(42);
    WalWriter w = WalWriter::create(path("frames.wal"), 3, 1, 4);
    std::string run;
    std::uint64_t in_run = 0;
    for (const WalRecord& rec : stream) {
      append_wal_frame(run, rec);
      ++in_run;
      if (rng.chance(0.03)) {
        w.append_frames(run, in_run);
        run.clear();
        in_run = 0;
      }
    }
    w.append_frames(run, in_run);
    EXPECT_EQ(w.records(), stream.size());
  }
  {
    // Shard level, as the worker drives it: ratings staged, the run
    // written when the queue runs dry (random here) or at the cap, and
    // markers written together with the run before them.
    ServiceConfig cfg;
    cfg.num_nodes = kN;
    ServiceShard shard(0, cfg);
    shard.attach_wal(WalWriter::create(path("shard.wal"), 3, 1, 4));
    util::Rng rng(43);
    for (const WalRecord& rec : stream) {
      if (rec.kind == WalRecordKind::kRating) {
        shard.stage_record(rec);
        if (rng.chance(0.01)) shard.flush_wal();
      } else {
        shard.log_record(rec);
        EXPECT_FALSE(shard.wal_run_pending());
      }
    }
    shard.flush_wal();
    EXPECT_EQ(shard.wal_records(), stream.size());
  }

  const std::string ref = slurp(path("ref.wal"));
  ASSERT_EQ(parse_wal(ref).records.size(), stream.size());
  EXPECT_EQ(slurp(path("frames.wal")), ref);
  EXPECT_EQ(slurp(path("shard.wal")), ref);
}

TEST_F(WalRunTest, DrainReturnsWithEveryHandledFrameInTheFile) {
  constexpr std::size_t kShards = 4;
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  cfg.num_shards = kShards;
  cfg.epoch_ratings = 1u << 30;  // epochs only by force_epoch()
  cfg.wal_dir = dir_.string();
  ReputationService svc(cfg);

  util::Rng rng(44);
  std::uint64_t ratings = 0, markers = 0;
  rating::Tick t = 0;
  for (int round = 0; round < 24; ++round) {
    const std::uint64_t burst = 1 + rng.next_below(3000);
    for (std::uint64_t k = 0; k < burst; ++k)
      ASSERT_TRUE(svc.ingest(random_rating(rng, t++)));
    ratings += burst;
    if (round % 6 == 5) {
      svc.force_epoch();
      markers += kShards;
    }
    svc.drain();

    // The service is still running; the files must already hold every
    // frame the workers handled.
    std::uint64_t ratings_on_disk = 0, markers_on_disk = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      std::ostringstream name;
      name << "shard-" << std::setw(3) << std::setfill('0') << s << ".wal";
      const WalReadResult wal = read_wal(path(name.str()));
      ASSERT_TRUE(wal.found);
      EXPECT_FALSE(wal.truncated_tail);
      for (const WalRecord& rec : wal.records)
        ++(rec.kind == WalRecordKind::kRating ? ratings_on_disk
                                              : markers_on_disk);
    }
    ASSERT_EQ(ratings_on_disk, ratings) << "round " << round;
    ASSERT_EQ(markers_on_disk, markers) << "round " << round;
    EXPECT_EQ(svc.metrics().wal_records, ratings + markers);
    EXPECT_EQ(svc.queue_depth(), 0u);
  }

  // Many tiny runs: a worker that counted a record handled before
  // writing its run would let some of these drain() calls return a few
  // microseconds early (a copy built that way missed 4-11 of 1000).
  int early = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t burst = 1 + rng.next_below(8);
    for (std::uint64_t k = 0; k < burst; ++k)
      ASSERT_TRUE(svc.ingest(random_rating(rng, t++)));
    ratings += burst;
    svc.drain();
    if (svc.metrics().wal_records != ratings + markers) ++early;
  }
  EXPECT_EQ(early, 0) << "drain() returned before a run was written";
  svc.stop();
}

TEST_F(WalRunTest, UndrainedStreamStillWritesAtTheCap) {
  // A worker writes its run when its queue runs dry; one whose queue
  // never does must still write every kWalRunBytes.
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  ServiceShard shard(0, cfg);
  const std::string file = path("cap.wal");
  shard.attach_wal(WalWriter::create(file, 0, 0, 1));

  util::Rng rng(45);
  std::vector<WalRecord> staged;
  std::string frames;  // every staged frame, in order
  std::uint64_t writes = 0, last_on_disk = 0;
  while (writes < 3) {
    staged.push_back(WalRecord::make_rating(random_rating(rng, staged.size())));
    append_wal_frame(frames, staged.back());
    shard.stage_record(staged.back());
    const std::uint64_t on_disk = fs::file_size(file) - kWalHeaderBytes;
    if (on_disk != last_on_disk) {
      ++writes;
      // A write happens exactly when the run reaches the cap, and takes
      // the whole run.
      EXPECT_EQ(on_disk, frames.size());
      EXPECT_GE(on_disk - last_on_disk, ServiceShard::kWalRunBytes);
      EXPECT_FALSE(shard.wal_run_pending());
      last_on_disk = on_disk;
    }
    ASSERT_LT(frames.size() - on_disk, ServiceShard::kWalRunBytes)
        << "a staged run outgrew the cap";
  }
  const WalReadResult wal = read_wal(file);
  EXPECT_FALSE(wal.truncated_tail);
  EXPECT_EQ(wal.records.size(), staged.size());
  EXPECT_EQ(shard.wal_records(), staged.size());
}

}  // namespace
}  // namespace p2prep::service
