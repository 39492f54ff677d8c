// One shard of the online reputation service: a managers::CentralizedManager
// over its partition, plus its SummationEngine, WAL writer and epoch
// counters. Shards own disjoint ratee partitions (the consistent-hash
// service::ShardMap over dht::hash_node), so every quantity detection
// needs about node i — its matrix row, window totals, engine reputation —
// lives wholly inside its owner shard. The shard's worker thread (owned by ReputationService) is
// the only mutator between epochs; the service's global epoch detects over
// every shard while their workers are parked, and readers go through the
// service's published view. The shard's matrix and engine hold state only
// for the nodes it owns, slotted through the shard map's shared
// rating::RowIndex. A resize moves a node between shards via
// take_node()/restore_node() while both workers are parked at the resize
// barrier, and set_shard_map_stamp() re-slots every surviving shard for
// the new map in between.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/evidence.h"
#include "managers/centralized.h"
#include "reputation/summation.h"
#include "service/shard_map.h"
#include "service/wal.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::service {

/// Transport seam of the decentralized-manager service mode: when
/// ServiceConfig::cluster is set, shard workers forward ratings to the
/// manager cluster instead of applying them locally, and the global epoch
/// pulls each range's authoritative state back before detecting. Expressed
/// as std::functions so the service layer never depends on src/cluster/
/// (which depends on the service layer) — cluster::make_cluster_backend
/// builds the real implementation over ClusterClients.
///
/// Threading contract: forward(shard, r) is called only by shard `shard`'s
/// worker thread; pull/push/failovers only by the epoch coordinator while
/// every worker is parked at the barrier. Implementations need no locking
/// if they keep per-shard state disjoint.
struct ClusterBackend {
  /// Sends one rating (routed to `shard` == its owner key range) to the
  /// cluster; false when no holder acknowledged.
  std::function<bool(std::size_t shard, const rating::Rating& r)> forward;
  /// Returns key range `range`'s state as canonical checkpoint bytes
  /// (service::parse_checkpoint decodes them); empty on failure.
  std::function<std::string(std::size_t range)> pull;
  /// Commits a global epoch's colluder verdicts cluster-wide.
  std::function<bool(std::uint64_t epoch_seq,
                     const std::vector<rating::NodeId>& flagged)>
      push;
  /// Inserts served by a replica after a primary failure (gauge).
  std::function<std::uint64_t()> failovers;
};

struct ServiceConfig {
  std::size_t num_nodes = 0;
  /// Initial shard count. The live count can change afterwards via
  /// ReputationService::resize(); durable recovery adopts the count the
  /// on-disk state was written under, not this field.
  std::size_t num_shards = 1;
  std::size_t queue_capacity = 4096;

  /// Rating-count epoch trigger: an epoch fires after this many accepted
  /// ratings, counted service-wide by the router. 0 disables.
  std::uint64_t epoch_ratings = 1024;
  /// Virtual-time epoch trigger: an epoch fires when an ingested rating's
  /// tick is >= last epoch tick + epoch_ticks, where every epoch marker
  /// (count, tick or forced) sets the last epoch tick to the highest tick
  /// routed before it. 0 disables.
  std::uint64_t epoch_ticks = 0;

  /// Detector name, resolved by detect::make_detector ("basic",
  /// "optimized", "group" or "ring"). An unknown name throws
  /// std::invalid_argument at construction, naming every detector.
  std::string detector = "optimized";
  core::DetectorConfig detector_config{};
  /// Keep per-epoch detection report text (report_log()).
  bool record_reports = true;

  /// Scan threads for the global-epoch detection sweep; 0 = auto
  /// (min(hardware_concurrency, 8)), 1 = serial on the coordinator.
  /// Above 1, a detect::ThreadPoolExecutor of this many threads runs the
  /// sweep's row-range tasks while the coordinator waits; per-range
  /// results merge in range order, so reports, WAL bytes and checkpoints
  /// are identical to the serial sweep.
  std::size_t epoch_scan_threads = 0;

  /// Directory for WAL + checkpoint files; empty disables durability.
  std::string wal_dir;
  /// Compact (checkpoint + WAL rotate) every N epochs; 0 = never.
  std::uint64_t checkpoint_every_epochs = 0;

  /// Decentralized-manager mode: when set, shard state lives in the
  /// multi-process manager cluster behind this seam — workers forward
  /// ratings instead of applying them, the global epoch pulls range state
  /// back to detect over it and pushes the verdicts cluster-wide.
  /// Requires a rating-count trigger, no local wal_dir and a
  /// basic/optimized detector; num_shards must equal the cluster's ring
  /// size. Durability is the managers' concern, not the service's.
  std::shared_ptr<ClusterBackend> cluster;

  [[nodiscard]] bool valid() const noexcept {
    return num_nodes >= 2 && num_shards >= 1 && queue_capacity >= 1 &&
           (epoch_ratings > 0 || epoch_ticks > 0) && detector_config.valid();
  }
};

/// Deterministic detection-report text: header line with epoch number,
/// source label (the service writes "global"), pair/ring counts and
/// flagged ids, then one evidence line per pair and per ring. Byte-stable
/// across runs — the recovery tests compare it.
[[nodiscard]] std::string format_epoch_report(
    const std::string& label, std::uint64_t epoch,
    const core::DetectionReport& report);

class ServiceShard {
 public:
  /// Shard `index` of `map`.
  ServiceShard(std::size_t index, const ServiceConfig& config,
               const ShardMap& map);
  /// Shard `index` of the map for config.num_shards shards.
  ServiceShard(std::size_t index, const ServiceConfig& config);

  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  // --- Durability ---
  void attach_wal(WalWriter writer);
  [[nodiscard]] bool wal_attached() const noexcept {
    return wal_.has_value();
  }
  /// WAL frames of a drained run are staged in memory and written with
  /// one write; a run that reaches this many bytes is written at once.
  static constexpr std::size_t kWalRunBytes = 64 * 1024;

  /// Encodes `rec` into the staged run (no-op when detached); writes the
  /// run when it reaches kWalRunBytes.
  void stage_record(const WalRecord& rec);
  /// Writes the staged run, if any, with one write and updates the WAL
  /// metrics.
  void flush_wal();
  /// stage_record() + flush_wal(): `rec` is in the file on return. Epoch
  /// markers and resize fences go through here, so a checkpoint rotation
  /// never sees a partial run; the cluster managers log each rating this
  /// way before acknowledging it.
  void log_record(const WalRecord& rec);
  /// Whether staged frames are still waiting for flush_wal().
  [[nodiscard]] bool wal_run_pending() const noexcept {
    return wal_run_records_ != 0;
  }

  /// Builds a checkpoint of the full shard state; nullopt when the engine
  /// cannot serialize itself (checkpointing then stays disabled).
  [[nodiscard]] std::optional<ShardCheckpoint> make_checkpoint() const;
  /// Atomically writes the checkpoint and rotates the WAL. Returns false
  /// (leaving the WAL unrotated) when either step fails.
  bool checkpoint_and_rotate(const std::string& ckpt_path);
  /// Restores state from a checkpoint (fresh shard only) and republishes
  /// the engine's reputations. Throws std::runtime_error, before
  /// touching any state, when a cell, suppressed or detected id is
  /// >= num_nodes, the cells are not strictly ascending by (ratee, rater),
  /// a cell is a self-rating, a cell's ratee is a node this shard does not
  /// own, or the engine blob does not load (a CRC-valid checkpoint can
  /// still be hostile, or sized for another node count).
  void restore(const ShardCheckpoint& ckpt);
  /// Discards the shard's entire state (engine, matrix, counters) and
  /// restores from `ckpt` — restore() for a shard that has already lived.
  /// Used by the cluster paths: a rejoining manager adopting a peer's
  /// authoritative range state, and the decentralized service mode
  /// refreshing its local copies from the cluster at each epoch. Only
  /// safe while the worker is parked (or before workers exist). Refuses
  /// the checkpoints restore() refuses, leaving the current state intact.
  void reload_from(const ShardCheckpoint& ckpt);

  /// Stamps the shard map (epoch, count) this shard currently runs under;
  /// recorded in every checkpoint it writes and in rotated WAL headers.
  /// A map with other owners re-slots the matrix and engine for it: the
  /// state of nodes the shard keeps moves to their new slots, and what is
  /// left of nodes it no longer owns (take_node() took their state) is
  /// dropped. Only safe while the worker is parked.
  void set_shard_map_stamp(std::uint64_t map_epoch, const ShardMap& map);

  // --- Shard handoff (elastic resharding) ---

  /// Everything one node's state amounts to inside a shard: its window
  /// matrix row, raw engine sum, and suppression / detected membership.
  struct NodeTransfer {
    rating::NodeId id = 0;
    std::vector<std::pair<rating::NodeId, rating::PairStats>> cells;
    std::int64_t raw_sum = 0;
    bool suppressed = false;
    bool detected = false;
  };

  /// Extracts node `id`'s state from this shard, leaving it with no trace
  /// of the node (empty row, zero sum, unsuppressed, undetected). Only
  /// safe while the worker is parked at the resize barrier.
  [[nodiscard]] NodeTransfer take_node(rating::NodeId id);
  /// Installs a transfer taken from another shard, and refreshes the
  /// node's global reputation and high-reputed flag from its restored
  /// sum. The shard must own the node under its current map, and the
  /// node must be untracked here (never owned, or previously taken).
  void restore_node(const NodeTransfer& t);

  // --- Ingest path (worker thread only) ---
  /// Applies one rating to the manager + engine. Returns false when the
  /// manager rejected it (cannot happen for ratings that passed service
  /// validation).
  bool apply_rating(const rating::Rating& r);

  // --- Hooks for service-driven (global) epochs ---
  [[nodiscard]] managers::CentralizedManager& manager() noexcept {
    return *manager_;
  }
  [[nodiscard]] const managers::CentralizedManager& manager() const noexcept {
    return *manager_;
  }
  [[nodiscard]] reputation::ReputationEngine& engine() noexcept {
    return engine_;
  }
  /// Commits global epoch `epoch_seq` (service and cluster managers alike):
  /// the manager's apply_verdicts() over the service-wide flagged ids,
  /// then the epoch close.
  void commit_epoch(std::uint64_t epoch_seq,
                    const std::vector<rating::NodeId>& flagged);

  // --- Counters (atomic: read by metrics() from any thread) ---
  [[nodiscard]] std::uint64_t applied_total() const noexcept {
    return applied_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t epochs_completed() const noexcept {
    return epochs_completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wal_records() const noexcept {
    return wal_records_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wal_bytes() const noexcept {
    return wal_bytes_.load(std::memory_order_relaxed);
  }
  /// Resident bytes of the shard's rating matrix, refreshed at every epoch
  /// close and restore (reading the live matrix from other threads would
  /// race with the worker).
  [[nodiscard]] std::uint64_t matrix_resident_bytes() const noexcept {
    return matrix_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Stamps `epoch` as completed and resets the per-epoch cadence state.
  void close_epoch(std::uint64_t epoch);
  /// Replaces the manager with an empty one over engine_.
  void reset_manager();
  /// This shard's partition number in row_index_.
  [[nodiscard]] std::uint32_t part() const noexcept {
    return static_cast<std::uint32_t>(index_);
  }
  /// Throws std::runtime_error when `ckpt` names an id >= num_nodes, its
  /// cells are not strictly ascending by (ratee, rater), one is a
  /// self-rating, or one is of a ratee this shard does not own.
  void check_ids(const ShardCheckpoint& ckpt) const;
  /// restore() after the engine blob: suppression, detected set, cells
  /// and counters, then republishes. Nothing in it refuses a checkpoint.
  void install_checkpoint(const ShardCheckpoint& ckpt);

  std::size_t index_;
  const ServiceConfig* config_;
  std::uint64_t map_epoch_ = 0;
  std::uint32_t map_num_shards_ = 1;
  /// The live map's owner and rank tables, shared with every shard.
  std::shared_ptr<const rating::RowIndex> row_index_;
  reputation::SummationEngine engine_;
  std::unique_ptr<managers::CentralizedManager> manager_;
  std::optional<WalWriter> wal_;
  /// Staged frames of the current run and their record count (worker
  /// thread only).
  std::string wal_run_;
  std::uint64_t wal_run_records_ = 0;

  // Worker-thread state (global-epoch access happens while workers are
  // parked at the barrier, so no locking is needed beyond the atomics).
  std::atomic<std::uint64_t> applied_total_{0};
  std::uint64_t applied_since_epoch_ = 0;
  /// last_applied_tick_ is the highest tick applied so far;
  /// last_epoch_tick_ is its value when the last epoch closed, which
  /// checkpoints carry so recover() can resume the tick cadence.
  rating::Tick last_epoch_tick_ = 0;
  rating::Tick last_applied_tick_ = 0;
  std::atomic<std::uint64_t> epochs_completed_{0};
  std::atomic<std::uint64_t> wal_records_{0};
  std::atomic<std::uint64_t> wal_bytes_{0};
  std::atomic<std::uint64_t> matrix_bytes_{0};

  friend class ReputationService;
};

}  // namespace p2prep::service
