// ReputationService: the sharded online front-end of the collusion
// detection pipeline (DESIGN.md "Service layer").
//
// Topology: ingest_batch(), the one ingest path, routes each rating by
// ratee id through the live consistent-hash ShardMap onto one of S shards
// and enqueues it on that shard's bounded IngestQueue, waiting at a full
// queue (Admission::kBlock) or ending the call there (kNoWait, so the RPC
// front door can shed); a worker thread per shard drains its queue into
// the shard's incremental manager. Epochs (reputation update +
// detection) are triggered by rating-count or virtual-time thresholds:
//
//  * EpochScope::kGlobal — the router injects an epoch marker into every
//    queue; workers barrier on it and the last arriver becomes the epoch
//    COORDINATOR: it freezes all shards' state, then fans the detection
//    sweep out as row-range tasks on the service's scan pool (a
//    detect::ThreadPoolExecutor), merging per-range findings in range
//    order so the report is byte-identical to a serial pass (cross-shard
//    pairs included). With epoch_overlap on, the parked workers are
//    released as soon as the state is frozen and resume ingest into
//    per-shard pending buffers while the coordinator scans; the
//    buffered ratings apply after the epoch commits, so the
//    logical stream order — and every report, WAL and checkpoint byte —
//    matches the non-overlapped run. Epochs are totally ordered and
//    replay-deterministic.
//  * EpochScope::kPerShard — each shard epochs independently on its own
//    applied-rating count; detection is shard-local and shards never wait
//    for each other.
//
// Elastic resharding (kGlobal only): resize(new_num_shards) changes the
// shard count online. The router atomically injects a resize fence into
// every current queue and swaps in the new routing table, so each worker
// sees exactly the records routed under its map; once every worker is
// parked at the fence, the handoff moves only the nodes whose owner
// changed (consistent hashing: ~1/S of keys on grow), commits durably
// (checkpoint + WAL rotate under the new map), and releases. Ingest for
// non-moving keys never pauses longer than one handoff window, and
// detection reports are byte-identical to a never-resized run
// (tests/differential/reshard_differential_test.cpp).
//
// Reads (snapshot(), metrics(), report_log()) never block ingest: epochs
// and recovery publish one immutable PublishedView keyed by node id, which
// a resize leaves exact (a moved node takes its state with it).
//
// Durability: when configured with a wal_dir, every shard logs its applied
// record stream (ratings + epoch markers) to a per-shard WAL, writing each
// drained run of frames with one write before it waits for more, and
// periodically compacts the log into a checkpoint (see service/wal.h).
// drain() returns only once every handled frame is in the file.
// Constructing a service over a directory that already
// holds service state recovers it: the shard count and map epoch are read
// back from the stored headers (so a resized deployment recovers at its
// resized width regardless of config.num_shards), checkpoints are loaded,
// WAL suffixes replayed — re-running every epoch whose marker reached all
// shards — and the service resumes accepting ratings. Replay regenerates
// byte-identical detection reports (tested).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "detect/executor.h"
#include "service/ingest_queue.h"
#include "service/metrics.h"
#include "service/shard.h"
#include "service/shard_map.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::service {

/// Immutable service-wide read state, swapped wholesale so readers never
/// observe a half-published epoch.
struct PublishedView {
  std::vector<double> reputations;     ///< Per node, from its owner shard.
  std::vector<std::uint8_t> suspected; ///< 1 once its owner flagged it.
  /// The epoch each shard last closed, indexed by the layout the view was
  /// last published under (a resize keeps it).
  std::vector<std::uint64_t> shard_epochs;
};

/// Point-in-time read: the published view plus the applied shard map.
/// Holding one pins both; the service keeps publishing newer views.
struct ServiceSnapshot {
  std::shared_ptr<const PublishedView> view;
  std::shared_ptr<const ShardMap> map;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return map ? map->num_shards() : 0;
  }
  /// Owner shard of node i under this snapshot's map (0 when out of range).
  [[nodiscard]] std::size_t owner(rating::NodeId i) const noexcept {
    return map && i < map->num_nodes() ? map->owner(i) : 0;
  }
  /// Node i's published reputation (0 when out of range).
  [[nodiscard]] double reputation(rating::NodeId i) const noexcept {
    return view && i < view->reputations.size() ? view->reputations[i] : 0.0;
  }
  /// Whether node i's owner flagged it (false when out of range).
  [[nodiscard]] bool suspected(rating::NodeId i) const noexcept {
    return view && i < view->suspected.size() && view->suspected[i] != 0;
  }
  /// Lowest epoch any shard has closed (== the epoch in kGlobal scope).
  [[nodiscard]] std::uint64_t min_epoch() const noexcept {
    return view && !view->shard_epochs.empty()
               ? std::ranges::min(view->shard_epochs)
               : 0;
  }
  /// The epoch node i's shard last closed. A shard grown since the last
  /// publish has no entry; only kGlobal scope resizes, where every shard
  /// closes the same epoch.
  [[nodiscard]] std::uint64_t epoch(rating::NodeId i) const noexcept {
    const std::size_t s = owner(i);
    return view && s < view->shard_epochs.size() ? view->shard_epochs[s]
                                                 : min_epoch();
  }
};

/// What ReputationService::ingest_batch() does at a full owner queue: wait
/// for room (backpressure), or end the call so the caller can shed.
enum class Admission { kBlock, kNoWait };

/// Outcome of one ingest_batch() call, which consumed the prefix
/// accepted + rejected of its batch; `stop` says why it ended early.
struct IngestResult {
  enum class Stop { kNone, kFull, kStopped };
  std::size_t accepted = 0;  ///< Entered their owner queue.
  std::size_t rejected = 0;  ///< Invalid (self-rating / id out of range).
  Stop stop = Stop::kNone;
};

/// Outcome of one ReputationService::resize() call.
struct ResizeStats {
  std::size_t num_shards = 0;     ///< Shard count after the resize.
  std::uint64_t keys_moved = 0;   ///< Nodes whose owner shard changed.
  double duration_ms = 0.0;       ///< Handoff window (fence to release).
};

class ReputationService {
 public:
  /// Starts the shard workers. When config.wal_dir names a directory that
  /// already holds service state (service.meta present), recovers from
  /// checkpoint + WAL replay first — adopting the shard count the stored
  /// state was written under; a config mismatch with the stored meta
  /// (num_nodes / scope / detector) throws std::runtime_error.
  explicit ReputationService(ServiceConfig config);
  ~ReputationService();

  ReputationService(const ReputationService&) = delete;
  ReputationService& operator=(const ReputationService&) = delete;

  /// The one ingest path: skips and counts invalid ratings and routes the
  /// rest onto their owners' queues in stream order, so epoch markers
  /// land where per-rating calls put them. A full queue blocks or, with
  /// kNoWait, ends the call; so does stop().
  IngestResult ingest_batch(std::span<const rating::Rating> batch,
                            Admission admission);
  /// Blocking ingest_batch() of one rating: true when it was accepted.
  bool ingest(const rating::Rating& r) {
    return ingest_batch({&r, 1}, Admission::kBlock).accepted == 1;
  }

  /// Records admitted but not yet handled, across shards: queued, in a
  /// worker's hands, or staged for an unwritten WAL run. Lock-free (two
  /// atomic loads); the RPC server's inflight gate and metrics() read it.
  [[nodiscard]] std::uint64_t queue_depth() const;

  /// Blocks until every routed record has been fully processed and no
  /// epoch or resize is in flight. Deterministic quiesce point.
  void drain();

  /// Injects an epoch marker into every shard queue (asynchronously; use
  /// drain() to wait for completion). Returns the marker's sequence
  /// number. Works in both scopes; forced epochs are WAL-logged and thus
  /// replayed at the same stream position on recovery.
  std::uint64_t force_epoch();

  /// Changes the shard count online (kGlobal scope only; blocks until the
  /// handoff committed). Only nodes whose ShardMap owner changes move;
  /// ingest of non-moving keys continues throughout, bounded by one
  /// handoff window. Throws std::invalid_argument for unsupported
  /// configurations (per-shard scope, shard count 0, detector "group"
  /// with > 1 shard, normalized engine) and std::runtime_error when the
  /// service is stopped or the durable commit fails.
  ResizeStats resize(std::size_t new_num_shards);

  /// Closes the ingest queues, lets workers drain them, and joins. Safe
  /// to call twice. The destructor calls it implicitly.
  void stop();

  /// Test hook simulating a hard crash: discards everything still queued,
  /// abandons any in-flight epoch barrier or resize fence and joins the
  /// workers without flushing state — only the WAL survives, as in a real
  /// crash.
  void crash_stop();

  [[nodiscard]] ServiceSnapshot snapshot() const;
  [[nodiscard]] ServiceMetrics metrics() const;
  /// Concatenated detection reports: the global epoch log (kGlobal) or
  /// the shard logs in shard order (kPerShard).
  [[nodiscard]] std::string report_log() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  /// Current shard count (changes across resize()).
  [[nodiscard]] std::size_t num_shards() const;
  /// Owner shard of node `id` under the currently applied map.
  [[nodiscard]] std::size_t shard_of(rating::NodeId id) const;
  /// Whether the constructor restored state from a previous run.
  [[nodiscard]] bool recovered() const noexcept { return recovered_; }

 private:
  struct ShardSlot {
    ShardSlot(std::size_t index, const ServiceConfig& config)
        : queue(config.queue_capacity), shard(index, config) {}

    IngestQueue<WalRecord> queue;
    ServiceShard shard;
    std::thread worker;

    /// Detection/ingest overlap (kGlobal + epoch_overlap): while the
    /// coordinator scans the frozen matrices, this shard's worker parks
    /// popped ratings here (after WAL-logging them, preserving log order)
    /// instead of applying them; the coordinator applies the buffer in
    /// pop order after the epoch commits, so the matrices see exactly the
    /// serial stream. apply_mu_ is a per-slot leaf: it never nests with
    /// any service mutex (the coordinator flips `deferred` outside
    /// epoch_mu_) and guards only these two fields.
    util::Mutex apply_mu_;
    bool deferred P2PREP_GUARDED_BY(apply_mu_) = false;
    std::vector<WalRecord> pending P2PREP_GUARDED_BY(apply_mu_);
  };

  /// One immutable generation of the shard layout: the slots plus the map
  /// that routes into them. Two generations are live during a resize —
  /// the routing table (swapped when the fence is injected, so every
  /// record a queue holds was routed under the map its worker expects)
  /// and the applied table (swapped at the fence with all workers parked,
  /// backing every read and epoch). Slots shared between generations are
  /// the same objects.
  struct SlotTable {
    std::vector<std::shared_ptr<ShardSlot>> slots;
    std::shared_ptr<const ShardMap> map;
    std::uint64_t map_epoch = 0;
  };

  /// Durable files of one shard index, as found on disk at recovery.
  struct ShardDurableState {
    std::optional<ShardCheckpoint> ckpt;
    WalReadResult wal;
  };

  [[nodiscard]] std::string wal_path(std::size_t shard) const;
  [[nodiscard]] std::string ckpt_path(std::size_t shard) const;
  void write_meta() const;
  void check_meta() const;
  /// Reads checkpoint + WAL of every shard index that left files behind.
  [[nodiscard]] std::vector<ShardDurableState> read_durable_state() const;
  void recover(std::vector<ShardDurableState> state,
               std::uint64_t map_epoch);

  [[nodiscard]] std::shared_ptr<const SlotTable> routing_table() const
      P2PREP_EXCLUDES(route_mu_);
  [[nodiscard]] std::shared_ptr<const SlotTable> applied_table() const
      P2PREP_EXCLUDES(applied_mu_);
  /// Union of routing + applied slots (distinct objects only), for
  /// lifecycle paths that must reach retiring / not-yet-applied shards.
  [[nodiscard]] std::vector<std::shared_ptr<ShardSlot>> all_slots() const;

  /// The one place a rating enters a queue: validates `r`, pushes it onto
  /// its owner's queue in `table` and counts the outcome into `out`.
  bool route_rating(const SlotTable& table, const rating::Rating& r,
                    Admission admission, IngestResult& out);
  /// Global scope, after a rating entered its owner queue: when the epoch
  /// cadence is due, injects the next epoch marker.
  void routed_rating(rating::Tick tick) P2PREP_REQUIRES(route_mu_);
  /// Pushes epoch marker ++epoch_seq_ into every routed queue; returns it.
  std::uint64_t inject_marker() P2PREP_REQUIRES(route_mu_);

  void worker_loop(std::shared_ptr<ShardSlot> slot);
  /// Logs and applies one popped record (or forwards it, in cluster
  /// mode); ratings are staged into the shard's WAL run, markers and
  /// fences write the run.
  void handle_record(ShardSlot& slot, const WalRecord& rec);
  void run_shard_epoch(ShardSlot& slot);
  void global_barrier(ShardSlot& slot, std::uint64_t seq);
  /// Worker side of a resize: parks at the fence until the handoff for
  /// `map_epoch` committed (or the service is crashing).
  void resize_fence(std::uint64_t map_epoch);
  /// The cross-shard epoch body; `live` gates wall-clock metrics and
  /// checkpoint compaction (both skipped during recovery replay). Shard
  /// state needs no lock here: callers guarantee every worker is parked
  /// at the barrier (or not yet started, during recovery).
  void run_global_epoch(std::uint64_t seq, bool live);
  /// Non-const: streaming detectors (global_detector_) keep state
  /// between epochs, and draining dirty deltas mutates shard matrices.
  [[nodiscard]] core::DetectionReport global_detect(const SlotTable& table);
  void record_epoch_metrics(std::chrono::steady_clock::time_point start,
                            std::size_t detections);
  void checkpoint_shard(ShardSlot& slot);
  void record_rings(const core::DetectionReport& report,
                    const detect::Detector& detector);
  /// Publishes a view rebuilt from every shard of `table` (whose workers
  /// are parked, deferred or not started) with the table's map.
  void publish_view(const SlotTable& table) P2PREP_EXCLUDES(view_mu_);
  /// Per-shard scope, on `shard`'s worker: publishes a copy of the view
  /// with the entries of the nodes `shard` owns overwritten.
  void publish_shard(ServiceShard& shard) P2PREP_EXCLUDES(view_mu_);
  /// (Re)creates global_detector_ for `table` — at construction and after
  /// every resize (streaming detectors rebuild their caches from the
  /// re-partitioned matrices on the next epoch) — and turns on dirty
  /// tracking in its shards when the detector streams.
  void make_global_detector(const SlotTable& table);

  ServiceConfig config_;
  /// Cross-shard detector instance for global epochs, built by
  /// detect::make_detector. Null in per-shard scope, where each shard owns
  /// its detector.
  std::unique_ptr<detect::Detector> global_detector_;
  /// Scan threads lent to global-epoch sweeps: kGlobal scope with a
  /// budget above 1 (ServiceConfig::epoch_scan_threads). Null = serial.
  std::unique_ptr<detect::ThreadPoolExecutor> scan_executor_;
  bool recovered_ = false;
  /// Cleared (from any worker) when a checkpoint attempt fails, so the
  /// service degrades to WAL-only durability instead of retrying forever.
  std::atomic<bool> checkpoints_enabled_{false};

  // --- Lock hierarchy -------------------------------------------------
  // Service mutexes are ordered; the P2PREP_ACQUIRED_AFTER annotations
  // below make an out-of-order acquisition a compile error under the
  // Clang TSA gate (-Wthread-safety-beta, see CMakeLists). Levels:
  //
  //   L0  resize_mu_              resize()/stop() serialization, outermost
  //   L1  route_mu_ | epoch_mu_   router swap / barrier+fence (never held
  //                               together — both only nest under L0)
  //   L2  applied_mu_             applied-table swap (under epoch_mu_ in
  //                               the global-epoch body)
  //   L3  latency_mu_, log_mu_,   metric/report/read-view leaves
  //       view_mu_                (under epoch_mu_)
  //
  // Below the service sit the per-object leaves — IngestQueue::mu_ (under
  // route_mu_: fence/marker injection pushes while routing), WalWriter::
  // mu_ and ServiceShard::log_mu_ (under epoch_mu_: the last barrier
  // arriver rotates WALs and appends reports). Those cannot be
  // named in member annotations here (TSA attribute arguments must be
  // in-scope member expressions), so their ordering is enforced by the
  // linter's conventions and documented in DESIGN.md §14.

  /// Serializes resize() calls against each other and against stop().
  util::Mutex resize_mu_;

  // Router state (kGlobal cadence) and the routing-generation table.
  mutable util::Mutex route_mu_ P2PREP_ACQUIRED_AFTER(resize_mu_);
  std::shared_ptr<const SlotTable> routing_ P2PREP_GUARDED_BY(route_mu_);
  std::uint64_t epoch_seq_ P2PREP_GUARDED_BY(route_mu_) = 0;
  std::uint64_t routed_since_epoch_ P2PREP_GUARDED_BY(route_mu_) = 0;
  rating::Tick global_last_epoch_tick_ P2PREP_GUARDED_BY(route_mu_) = 0;

  // Epoch barrier and resize fence (kGlobal scope).
  util::Mutex epoch_mu_ P2PREP_ACQUIRED_AFTER(resize_mu_);
  util::CondVar epoch_cv_;
  std::size_t arrived_ P2PREP_GUARDED_BY(epoch_mu_) = 0;
  /// How many workers a full epoch barrier takes — the applied table's
  /// slot count, updated while every worker is parked at a resize fence.
  std::size_t barrier_size_ P2PREP_GUARDED_BY(epoch_mu_) = 0;
  std::uint64_t epoch_done_seq_ P2PREP_GUARDED_BY(epoch_mu_) = 0;
  std::size_t resize_arrived_ P2PREP_GUARDED_BY(epoch_mu_) = 0;
  std::uint64_t resize_done_epoch_ P2PREP_GUARDED_BY(epoch_mu_) = 0;
  /// True from the moment an overlapped epoch releases the barrier until
  /// its buffered ratings have been applied; drain() waits it out.
  bool overlap_inflight_ P2PREP_GUARDED_BY(epoch_mu_) = false;

  // Applied-generation table: what epochs, reads and queries run against.
  mutable util::Mutex applied_mu_
      P2PREP_ACQUIRED_AFTER(resize_mu_, epoch_mu_);
  std::shared_ptr<const SlotTable> applied_ P2PREP_GUARDED_BY(applied_mu_);

  // Lifecycle.
  std::atomic<bool> stopped_{false};
  std::atomic<bool> crashing_{false};

  // Metrics.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> routed_records_{0};
  std::atomic<std::uint64_t> handled_records_{0};
  std::atomic<std::uint64_t> detections_total_{0};
  std::atomic<std::uint64_t> last_epoch_detections_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  // Ring gauges, recorded by record_rings() in both scopes.
  std::atomic<std::uint64_t> rings_found_{0};
  std::atomic<std::uint64_t> ring_largest_{0};
  std::atomic<std::uint64_t> ring_scan_us_{0};
  // Parallel-epoch gauges.
  std::atomic<std::uint64_t> epoch_scan_threads_{1};
  std::atomic<std::uint64_t> epoch_overlap_us_{0};
  std::atomic<std::uint64_t> accomplice_rounds_{0};
  // Cluster gauges (decentralized-manager mode).
  std::atomic<std::uint64_t> cluster_forwards_{0};
  std::atomic<std::uint64_t> cluster_forward_failures_{0};
  // Resize gauges.
  std::atomic<std::uint64_t> resizes_completed_{0};
  std::atomic<std::uint64_t> keys_moved_last_resize_{0};
  std::atomic<double> last_resize_ms_{0.0};
  // History counters of shards retired by shrinks, folded into metrics so
  // service-wide totals stay monotone across resizes.
  std::atomic<std::uint64_t> retired_applied_{0};
  std::uint64_t applied_base_ = 0;  ///< Applied count restored by recovery.
  std::chrono::steady_clock::time_point start_time_;
  mutable util::Mutex latency_mu_
      P2PREP_ACQUIRED_AFTER(resize_mu_, epoch_mu_);
  std::vector<double> epoch_latency_ms_ P2PREP_GUARDED_BY(latency_mu_);

  // Global-scope report log.
  mutable util::Mutex log_mu_ P2PREP_ACQUIRED_AFTER(resize_mu_, epoch_mu_);
  std::string report_log_ P2PREP_GUARDED_BY(log_mu_);

  // The published read view and the map snapshot() pairs it with: one
  // lock per read. A resize swaps the map without republishing the view.
  mutable util::Mutex view_mu_ P2PREP_ACQUIRED_AFTER(resize_mu_, epoch_mu_);
  ServiceSnapshot published_ P2PREP_GUARDED_BY(view_mu_);
};

}  // namespace p2prep::service
