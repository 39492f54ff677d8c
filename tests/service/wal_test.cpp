#include "service/wal.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("p2prep_wal_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static rating::Rating make_rating(rating::NodeId rater, rating::NodeId ratee,
                                    rating::Score score, rating::Tick time) {
    rating::Rating r;
    r.rater = rater;
    r.ratee = ratee;
    r.score = score;
    r.time = time;
    return r;
  }

  fs::path dir_;
};

TEST_F(WalTest, RoundTripRatingsAndMarkers) {
  const std::string p = path("a.wal");
  {
    WalWriter w = WalWriter::create(p, 7, 2, 4);
    w.append(WalRecord::make_rating(
        make_rating(1, 2, rating::Score::kPositive, 10)));
    w.append(WalRecord::make_rating(
        make_rating(3, 4, rating::Score::kNegative, 11)));
    w.append(WalRecord::make_marker(5));
    EXPECT_EQ(w.generation(), 7u);
    EXPECT_EQ(w.map_epoch(), 2u);
    EXPECT_EQ(w.map_shards(), 4u);
    EXPECT_EQ(w.records(), 3u);
  }
  const WalReadResult r = read_wal(p);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.truncated_tail);
  EXPECT_EQ(r.generation, 7u);
  EXPECT_EQ(r.map_epoch, 2u);
  EXPECT_EQ(r.num_shards, 4u);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].kind, WalRecordKind::kRating);
  EXPECT_EQ(r.records[0].rating.rater, 1u);
  EXPECT_EQ(r.records[0].rating.ratee, 2u);
  EXPECT_EQ(r.records[0].rating.score, rating::Score::kPositive);
  EXPECT_EQ(r.records[0].rating.time, 10u);
  EXPECT_EQ(r.records[1].rating.score, rating::Score::kNegative);
  EXPECT_EQ(r.records[2].kind, WalRecordKind::kEpochMarker);
  EXPECT_EQ(r.records[2].epoch_seq, 5u);
  EXPECT_EQ(r.end_offsets.size(), 3u);
  EXPECT_EQ(r.valid_bytes, r.end_offsets.back());
  EXPECT_EQ(r.valid_bytes, fs::file_size(p));
}

TEST_F(WalTest, MissingFileIsNotFound) {
  const WalReadResult r = read_wal(path("nope.wal"));
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(WalTest, TornTailIsTruncatedToValidPrefix) {
  const std::string p = path("torn.wal");
  {
    WalWriter w = WalWriter::create(p, 0, 0, 1);
    w.append(WalRecord::make_rating(
        make_rating(1, 2, rating::Score::kPositive, 1)));
    w.append(WalRecord::make_rating(
        make_rating(2, 3, rating::Score::kPositive, 2)));
  }
  // Chop the last record in half: a crash mid-append.
  const auto full = fs::file_size(p);
  fs::resize_file(p, full - 5);

  const WalReadResult r = read_wal(p);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.truncated_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].rating.rater, 1u);
  EXPECT_EQ(r.valid_bytes, r.end_offsets[0]);
}

TEST_F(WalTest, CorruptPayloadStopsAtTheBadFrame) {
  const std::string p = path("corrupt.wal");
  {
    WalWriter w = WalWriter::create(p, 0, 0, 1);
    w.append(WalRecord::make_rating(
        make_rating(1, 2, rating::Score::kPositive, 1)));
    w.append(WalRecord::make_rating(
        make_rating(2, 3, rating::Score::kPositive, 2)));
    w.append(WalRecord::make_rating(
        make_rating(3, 4, rating::Score::kPositive, 3)));
  }
  const WalReadResult clean = read_wal(p);
  ASSERT_EQ(clean.records.size(), 3u);

  // Flip one payload byte inside record 1: its CRC must reject it and
  // record 2 (physically intact) must not be surfaced either.
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(clean.end_offsets[0]) + 10);
  f.put('\xff');
  f.close();

  const WalReadResult r = read_wal(p);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.truncated_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, clean.end_offsets[0]);
}

TEST_F(WalTest, RotateBumpsGenerationAndEmptiesTheLog) {
  const std::string p = path("rot.wal");
  WalWriter w = WalWriter::create(p, 3, 5, 2);
  w.append(WalRecord::make_rating(
      make_rating(1, 2, rating::Score::kPositive, 1)));
  w.rotate();
  EXPECT_EQ(w.generation(), 4u);
  EXPECT_EQ(w.records(), 0u);
  // A plain rotate keeps the shard-map stamp.
  EXPECT_EQ(w.map_epoch(), 5u);
  EXPECT_EQ(w.map_shards(), 2u);
  w.append(WalRecord::make_marker(9));

  const WalReadResult r = read_wal(p);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.generation, 4u);
  EXPECT_EQ(r.map_epoch, 5u);
  EXPECT_EQ(r.num_shards, 2u);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].epoch_seq, 9u);
}

TEST_F(WalTest, RotateWithNewMapRestampsTheHeader) {
  const std::string p = path("restamp.wal");
  WalWriter w = WalWriter::create(p, 0, 0, 4);
  w.append(WalRecord::make_map_change(1, 8));
  w.rotate(1, 8);  // the resize-commit rotate
  EXPECT_EQ(w.generation(), 1u);
  EXPECT_EQ(w.map_epoch(), 1u);
  EXPECT_EQ(w.map_shards(), 8u);

  const WalReadResult r = read_wal(p);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.map_epoch, 1u);
  EXPECT_EQ(r.num_shards, 8u);
  EXPECT_TRUE(r.records.empty());  // the fence marker did not survive
}

TEST_F(WalTest, MapChangeRecordRoundTrips) {
  const std::string p = path("fence.wal");
  {
    WalWriter w = WalWriter::create(p, 2, 3, 4);
    w.append(WalRecord::make_rating(
        make_rating(1, 2, rating::Score::kPositive, 1)));
    w.append(WalRecord::make_map_change(4, 6));
  }
  const WalReadResult r = read_wal(p);
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[1].kind, WalRecordKind::kShardMapChange);
  EXPECT_EQ(r.records[1].epoch_seq, 4u);
  EXPECT_EQ(r.records[1].num_shards, 6u);
}

TEST_F(WalTest, ResumeTruncatesDiscardedSuffixAndAppends) {
  const std::string p = path("resume.wal");
  WalReadResult before;
  {
    WalWriter w = WalWriter::create(p, 2, 1, 2);
    w.append(WalRecord::make_rating(
        make_rating(1, 2, rating::Score::kPositive, 1)));
    w.append(WalRecord::make_marker(1));  // recovery will discard this
    before = read_wal(p);
  }
  ASSERT_EQ(before.records.size(), 2u);

  {
    WalWriter w = WalWriter::resume(p, 2, 1, 2, before.end_offsets[0], 1);
    EXPECT_EQ(w.generation(), 2u);
    EXPECT_EQ(w.records(), 1u);
    w.append(WalRecord::make_rating(
        make_rating(5, 6, rating::Score::kNegative, 2)));
  }
  const WalReadResult after = read_wal(p);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[0].kind, WalRecordKind::kRating);
  EXPECT_EQ(after.records[1].kind, WalRecordKind::kRating);
  EXPECT_EQ(after.records[1].rating.rater, 5u);
}

TEST_F(WalTest, CheckpointRoundTrip) {
  ShardCheckpoint ckpt;
  ckpt.wal_generation = 4;
  ckpt.wal_records_applied = 17;
  ckpt.map_epoch = 6;
  ckpt.map_num_shards = 8;
  ckpt.epochs_completed = 3;
  ckpt.applied_total = 120;
  ckpt.applied_since_epoch = 7;
  ckpt.last_epoch_tick = 99;
  ckpt.engine_blob = std::string("\x01\x02\x00\x03", 4);
  ckpt.suppressed = {2, 9};
  ckpt.detected = {2, 9, 11};
  rating::PairStats stats;
  stats.positive = 5;
  stats.negative = 1;
  stats.total = 6;
  ckpt.cells.push_back({3, 8, stats});

  const std::string p = path("shard.ckpt");
  ASSERT_TRUE(write_checkpoint(p, ckpt));
  const auto loaded = read_checkpoint(p);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->wal_generation, 4u);
  EXPECT_EQ(loaded->wal_records_applied, 17u);
  EXPECT_EQ(loaded->map_epoch, 6u);
  EXPECT_EQ(loaded->map_num_shards, 8u);
  EXPECT_EQ(loaded->epochs_completed, 3u);
  EXPECT_EQ(loaded->applied_total, 120u);
  EXPECT_EQ(loaded->applied_since_epoch, 7u);
  EXPECT_EQ(loaded->last_epoch_tick, 99u);
  EXPECT_EQ(loaded->engine_blob, ckpt.engine_blob);
  EXPECT_EQ(loaded->suppressed, ckpt.suppressed);
  EXPECT_EQ(loaded->detected, ckpt.detected);
  ASSERT_EQ(loaded->cells.size(), 1u);
  EXPECT_EQ(loaded->cells[0].ratee, 3u);
  EXPECT_EQ(loaded->cells[0].rater, 8u);
  EXPECT_EQ(loaded->cells[0].stats.positive, 5u);
  EXPECT_EQ(loaded->cells[0].stats.total, 6u);
}

TEST_F(WalTest, MissingOrCorruptCheckpointIsRejected) {
  EXPECT_FALSE(read_checkpoint(path("nope.ckpt")).has_value());

  ShardCheckpoint ckpt;
  ckpt.applied_total = 10;
  const std::string p = path("bad.ckpt");
  ASSERT_TRUE(write_checkpoint(p, ckpt));

  // Flip a byte past the header: CRC must reject the whole file.
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('\xff');
  f.close();
  EXPECT_FALSE(read_checkpoint(p).has_value());
}

TEST_F(WalTest, CheckpointWriteLeavesNoTempFileBehind) {
  ShardCheckpoint ckpt;
  const std::string p = path("atomic.ckpt");
  ASSERT_TRUE(write_checkpoint(p, ckpt));
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // only the checkpoint itself
}

/// The byte-at-a-time table loop crc32() used before slicing-by-8; kept
/// here as the reference the fast path must match bit for bit.
std::uint32_t crc32_bytewise(const unsigned char* bytes, std::size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicingBy8MatchesBytewiseReference) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);  // the standard check value
  std::mt19937 gen(7);
  std::vector<unsigned char> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(gen());
  std::size_t mismatches = 0;
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const unsigned char* p = buf.data() + align;
      if (crc32(p, len) != crc32_bytewise(p, len)) {
        ADD_FAILURE() << "align " << align << " len " << len;
        if (++mismatches == 10) return;
      }
    }
  }
}

}  // namespace
}  // namespace p2prep::service
