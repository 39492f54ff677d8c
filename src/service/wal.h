// Durable ingest for the reputation service: a per-shard append-only
// write-ahead log of the *applied* rating stream, plus snapshot
// checkpoints for compaction (DESIGN.md "Service layer").
//
// WAL file layout (all integers little-endian, host-order independent):
//
//   header:  8-byte magic "P2PWAL2\0" | u64 generation | u64 map_epoch |
//            u32 num_shards
//   record:  u32 payload_len | u32 crc32(payload) | payload
//   payload: u8 kind | kind-specific fields
//     kRating         — u32 rater | u32 ratee | u8 score(+1 bias) | u64 tick
//     kEpochMarker    — u64 epoch_seq
//     kShardMapChange — u64 map_epoch | u32 new_num_shards
//
// The header's (map_epoch, num_shards) pin the shard map every record in
// the file was routed under: a resize commits by checkpointing every shard
// and rotating every WAL with the new map fields, so one file never mixes
// records from two maps and recovery replays each file against the map
// that wrote it. A kShardMapChange marker is only ever observed in a WAL
// when the resize that logged it did NOT commit (crash inside the handoff
// window) — recovery strips it and resumes under the old map.
//
// The shard worker logs every record in the order it applies them, so
// replaying the log reproduces the shard's state transition sequence
// exactly — including epoch boundaries, which are logged as markers. It
// writes the frames of each drained run with one write (ServiceShard::
// stage_record), and every marker or fence writes the run before it, so
// a checkpoint never covers a record the file lacks. A torn tail (crash
// mid-write) fails its CRC or length check; readers keep the valid prefix
// and report the cut so recovery can truncate before appending again.
//
// Compaction: a checkpoint file captures the shard's full state together
// with (wal_generation, wal_records_applied); the WAL is then rotated
// (truncated, generation + 1). The generation number resolves every
// crash window: records in a WAL whose generation matches the checkpoint
// are skipped up to wal_records_applied, records in a younger-generation
// WAL are all post-checkpoint, and a WAL older than its checkpoint is
// corruption (wal_resume_point() below is that rule, for the service's
// shards and the cluster managers' key ranges alike). Checkpoints are
// written to a temp file and renamed so a crash never leaves a
// half-written snapshot in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rating/pair_stats.h"
#include "rating/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::service {

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// Bytes of the WAL file header (magic + generation + map_epoch +
/// num_shards). Exposed for recovery's truncation arithmetic.
inline constexpr std::uint64_t kWalHeaderBytes = 28;

/// Hard cap on one WAL record's payload length. Real payloads are at most
/// 18 bytes (kRating); a length field beyond this cap is corruption, not a
/// record, and the reader cuts the file there instead of trusting a
/// hostile 4 GiB length (an attacker-authored WAL is parsed with the same
/// code as our own — see fuzz/fuzz_wal.cpp).
inline constexpr std::uint32_t kMaxWalRecordBytes = 4096;

enum class WalRecordKind : std::uint8_t {
  kRating = 1,
  kEpochMarker = 2,
  /// Resize fence: logged by every shard worker immediately before it
  /// parks for the handoff window. Never survives a committed resize (the
  /// commit rotates the WAL), so recovery treats it as uncommitted residue.
  kShardMapChange = 3,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kRating;
  rating::Rating rating{};       ///< Valid when kind == kRating.
  std::uint64_t epoch_seq = 0;   ///< kEpochMarker seq / kShardMapChange epoch.
  std::uint32_t num_shards = 0;  ///< Valid when kind == kShardMapChange.

  static WalRecord make_rating(const rating::Rating& r) {
    WalRecord rec;
    rec.kind = WalRecordKind::kRating;
    rec.rating = r;
    return rec;
  }
  static WalRecord make_marker(std::uint64_t seq) {
    WalRecord rec;
    rec.kind = WalRecordKind::kEpochMarker;
    rec.epoch_seq = seq;
    return rec;
  }
  static WalRecord make_map_change(std::uint64_t map_epoch,
                                   std::uint32_t new_num_shards) {
    WalRecord rec;
    rec.kind = WalRecordKind::kShardMapChange;
    rec.epoch_seq = map_epoch;
    rec.num_shards = new_num_shards;
    return rec;
  }
};

class WalWriter {
 public:
  /// Creates (or truncates) a WAL file starting at `generation`, stamped
  /// with the shard map (map_epoch, num_shards) its records are routed
  /// under.
  static WalWriter create(const std::string& path, std::uint64_t generation,
                          std::uint64_t map_epoch, std::uint32_t num_shards);

  /// Reopens a WAL for appending after recovery. `valid_bytes` /
  /// `valid_records` come from read_wal(); any bytes beyond `valid_bytes`
  /// (torn tail, or markers recovery chose to discard) are truncated away
  /// first. Throws std::runtime_error if the file cannot be opened.
  static WalWriter resume(const std::string& path, std::uint64_t generation,
                          std::uint64_t map_epoch, std::uint32_t num_shards,
                          std::uint64_t valid_bytes,
                          std::uint64_t valid_records);

  /// Moving is only safe before the writer is shared across threads (the
  /// service moves writers into their shards during single-threaded
  /// startup); the mutex itself is not moved.
  WalWriter(WalWriter&& other) noexcept P2PREP_NO_THREAD_SAFETY_ANALYSIS;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  WalWriter& operator=(WalWriter&&) = delete;

  /// Appends one record and flushes it to the OS. Single appender; the
  /// internal mutex only makes the counter getters safe to poll from
  /// other threads (metrics, tests).
  void append(const WalRecord& rec) P2PREP_EXCLUDES(mu_);

  /// Appends `records` already-framed records (append_wal_frame output,
  /// concatenated) with one write and flushes them to the OS. The file
  /// bytes equal those of `records` append() calls.
  void append_frames(std::string_view frames, std::uint64_t records)
      P2PREP_EXCLUDES(mu_);

  /// Truncates the file and starts generation + 1 (post-checkpoint),
  /// keeping the current shard-map stamp.
  void rotate() P2PREP_EXCLUDES(mu_);
  /// Rotate variant for the resize commit: the fresh header carries the
  /// new shard map's (map_epoch, num_shards).
  void rotate(std::uint64_t map_epoch, std::uint32_t num_shards)
      P2PREP_EXCLUDES(mu_);

  [[nodiscard]] std::uint64_t generation() const P2PREP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return generation_;
  }
  /// Shard-map epoch stamped into the current file header.
  [[nodiscard]] std::uint64_t map_epoch() const P2PREP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return map_epoch_;
  }
  /// Shard count stamped into the current file header.
  [[nodiscard]] std::uint32_t map_shards() const P2PREP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_shards_;
  }
  /// Records present in the current-generation file.
  [[nodiscard]] std::uint64_t records() const P2PREP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return records_;
  }
  /// Bytes in the current-generation file (header included).
  [[nodiscard]] std::uint64_t bytes() const P2PREP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return bytes_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  WalWriter() = default;

  void rotate_locked() P2PREP_REQUIRES(mu_);

  std::string path_;  ///< Immutable after create()/resume().
  /// append()'s encode buffer; only the single appender touches it.
  std::string frame_;
  mutable util::Mutex mu_;
  std::ofstream out_ P2PREP_GUARDED_BY(mu_);
  std::uint64_t generation_ P2PREP_GUARDED_BY(mu_) = 0;
  std::uint64_t map_epoch_ P2PREP_GUARDED_BY(mu_) = 0;
  std::uint32_t num_shards_ P2PREP_GUARDED_BY(mu_) = 1;
  std::uint64_t records_ P2PREP_GUARDED_BY(mu_) = 0;
  std::uint64_t bytes_ P2PREP_GUARDED_BY(mu_) = 0;
};

struct WalReadResult {
  bool found = false;            ///< File existed and had a valid header.
  bool truncated_tail = false;   ///< A torn/corrupt suffix was discarded.
  std::uint64_t generation = 0;
  std::uint64_t map_epoch = 0;   ///< Shard map the records were routed under.
  std::uint32_t num_shards = 0;  ///< Shard count of that map.
  std::vector<WalRecord> records;
  /// Byte offset just past record [i]; end_offsets.size() == records.size().
  std::vector<std::uint64_t> end_offsets;
  /// Bytes of the valid prefix (header + intact records).
  std::uint64_t valid_bytes = 0;
};

/// Reads every intact record; stops at the first bad frame.
[[nodiscard]] WalReadResult read_wal(const std::string& path);

/// Parses WAL bytes already in memory (read_wal delegates here after
/// slurping the file). This is the hostile-input decoding surface: it
/// never throws, never over-reads, and caps every length field — fuzzed
/// by fuzz/fuzz_wal.cpp and replayed over the checked-in corpus in ctest.
[[nodiscard]] WalReadResult parse_wal(std::string_view content);

// --- Record/header encoders ------------------------------------------------
// Exposed so the fuzz seed-corpus generator (fuzz/corpus_gen.cpp), the
// round-trip oracles in the fuzz targets, and the corruption tests can
// build byte-exact WAL images without touching the filesystem. WalWriter
// uses these same functions — there is exactly one encoding of a record.

/// Appends the 28-byte file header (magic + generation + map stamp).
void append_wal_header(std::string& out, std::uint64_t generation,
                       std::uint64_t map_epoch, std::uint32_t num_shards);

/// Appends one framed record (u32 len | u32 crc | payload).
void append_wal_frame(std::string& out, const WalRecord& rec);

// --- Shard checkpoints -----------------------------------------------------

/// One non-empty window cell of the shard's rating matrix.
struct CheckpointCell {
  rating::NodeId ratee = 0;
  rating::NodeId rater = 0;
  rating::PairStats stats;
};

/// Full recoverable state of one shard at an epoch boundary.
struct ShardCheckpoint {
  std::uint64_t wal_generation = 0;
  std::uint64_t wal_records_applied = 0;  ///< Of that generation, consumed.
  /// Shard map this checkpoint was written under. Recovery adopts the
  /// highest map_epoch found across checkpoints (with its num_shards) as
  /// the live map; a mix of epochs means a crash hit the resize commit.
  std::uint64_t map_epoch = 0;
  std::uint32_t map_num_shards = 1;
  std::uint64_t epochs_completed = 0;
  std::uint64_t applied_total = 0;
  std::uint64_t applied_since_epoch = 0;
  std::uint64_t last_epoch_tick = 0;
  std::string engine_blob;                ///< ReputationEngine::save_state.
  std::vector<rating::NodeId> suppressed; ///< Sorted ascending.
  std::vector<rating::NodeId> detected;   ///< Sorted ascending.
  std::vector<CheckpointCell> cells;      ///< Row-major, deterministic order.
};

/// Serializes `ckpt` to `path` atomically (temp file + rename). Returns
/// false on I/O failure (the previous checkpoint, if any, is preserved).
[[nodiscard]] bool write_checkpoint(const std::string& path,
                                    const ShardCheckpoint& ckpt);

/// Loads a checkpoint; nullopt when missing or malformed (CRC mismatch).
[[nodiscard]] std::optional<ShardCheckpoint> read_checkpoint(
    const std::string& path);

/// Serializes `ckpt` to the full file image (magic + frame + payload);
/// write_checkpoint writes exactly these bytes. Exposed for the corpus
/// generator and round-trip oracles.
[[nodiscard]] std::string encode_checkpoint(const ShardCheckpoint& ckpt);

/// Parses a checkpoint file image already in memory (read_checkpoint
/// delegates here). Like parse_wal this is a hostile-input surface: every
/// count field is validated against the bytes actually present before any
/// allocation, so an adversarial image cannot force a multi-GiB resize.
/// Fuzzed by fuzz/fuzz_checkpoint.cpp.
[[nodiscard]] std::optional<ShardCheckpoint> parse_checkpoint(
    std::string_view content);

// --- Recovery --------------------------------------------------------------

/// Where one durable log — a service shard's or a cluster key range's —
/// resumes after a restart.
struct WalResume {
  /// First WAL record the checkpoint does not already cover.
  std::size_t first_record = 0;
  /// Generation of the WAL to reopen, or of the one to create when no WAL
  /// was found (one past the checkpoint's, which rotation would have made).
  std::uint64_t generation = 0;
};

/// The one recovery rule for a checkpoint + WAL pair (either may be
/// missing). A WAL of the checkpoint's generation replays from record
/// wal_records_applied; a younger WAL holds only post-checkpoint records.
/// Throws std::runtime_error when the WAL is older than the checkpoint or
/// holds fewer records than the checkpoint claims: the two files do not
/// belong together, and appending to that WAL would lose what it acks.
[[nodiscard]] WalResume wal_resume_point(
    const std::optional<ShardCheckpoint>& ckpt, const WalReadResult& wal);

}  // namespace p2prep::service
