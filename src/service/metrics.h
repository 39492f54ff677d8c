// Operational metrics of the sharded reputation service. ServiceMetrics is
// a plain value snapshot — ReputationService::metrics() assembles it from
// the service's atomic counters, so polling it never blocks ingest.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace p2prep::service {

struct ServiceMetrics {
  // Ingest front door.
  std::uint64_t ratings_accepted = 0;   ///< Routed into a shard queue.
  std::uint64_t ratings_rejected = 0;   ///< Invalid (self-rating, bad id).
  /// Cluster forwards that no holder acknowledged (a shard queue never
  /// discards a rating).
  std::uint64_t ratings_dropped = 0;
  std::uint64_t ratings_applied = 0;    ///< Applied to shard state.
  /// Records admitted but not yet handled, across shards: queued, in a
  /// worker's hands, or staged for an unwritten WAL run.
  std::uint64_t queue_depth = 0;
  double ingest_rate_per_sec = 0.0;     ///< Applied ratings / wall seconds.

  // Epochs and detection.
  /// Sequence number of the last global epoch closed; an epoch counts
  /// once, however many shards it spans.
  std::uint64_t epochs_completed = 0;
  std::uint64_t detections_total = 0;       ///< Flagged pairs, cumulative.
  std::uint64_t last_epoch_detections = 0;  ///< Flagged pairs, last epoch.
  double epoch_latency_ms_mean = 0.0;
  double epoch_latency_ms_p99 = 0.0;

  // Ring detection (detect::RingDetector / GroupDetector; all zero under
  // the pairwise detectors).
  std::uint64_t rings_found = 0;   ///< Rings reported, cumulative.
  std::uint64_t ring_largest = 0;  ///< Largest ring's member count seen.
  std::uint64_t ring_scan_us = 0;  ///< Last epoch's detector scan time.

  // Parallel global epochs (see ServiceConfig::epoch_scan_threads).
  /// Threads of the global epoch's scan pool (gauge; 1 = serial sweeps on
  /// the coordinator).
  std::uint64_t epoch_scan_threads = 1;
  /// Cross-shard accomplice-exchange rounds of the last global epoch (0
  /// when flag_accomplices is off or no pairs were flagged).
  std::uint64_t accomplice_exchange_rounds = 0;

  // Manager cluster (src/cluster/; all zero outside cluster deployments).
  /// Node ids whose owner range is held by this manager as primary.
  std::uint64_t cluster_owned_keys = 0;
  /// Replication copies owed to lagging holders (gauge): incremented per
  /// copy that failed delivery (after the retry), decremented when the
  /// debt is repaid by a resync hint toward the recovered holder.
  std::uint64_t cluster_replica_lag = 0;
  /// Requests this manager forwarded to the owner range's holders.
  std::uint64_t cluster_forwards = 0;
  /// Failovers observed: manager-side acting-primary serves plus
  /// client-side retargets after a primary death.
  std::uint64_t cluster_failovers = 0;

  // Shard map (elastic resharding).
  std::uint64_t current_shard_count = 0;   ///< Live shard count (gauge).
  std::uint64_t shard_map_epoch = 0;       ///< Bumped by each committed resize.
  std::uint64_t resizes_completed = 0;
  std::uint64_t keys_moved_last_resize = 0;  ///< Nodes moved by last resize.
  double last_resize_ms = 0.0;             ///< Last handoff window duration.

  // Durability.
  std::uint64_t wal_records = 0;          ///< Current-generation records.
  std::uint64_t wal_bytes = 0;            ///< Current-generation bytes.
  std::uint64_t checkpoints_written = 0;

  // Memory.
  /// Resident bytes of all shards' sparse rating matrices (estimate,
  /// refreshed at epoch boundaries): one row slot per owned node plus
  /// O(nnz) cells.
  std::uint64_t matrix_bytes = 0;

  // RPC front door (rpc/server.h). All zero when the service is driven
  // directly (serve-replay, tests) — RpcServer::fill_metrics() populates
  // them, so serve and serve-replay report through the same dump.
  std::uint64_t rpc_accepted = 0;    ///< Connections accepted.
  std::uint64_t rpc_rejected = 0;    ///< Connections refused at max_connections.
  std::uint64_t rpc_requests = 0;    ///< Complete request frames decoded.
  std::uint64_t rpc_shed = 0;        ///< Requests answered kRetryLater.
  std::uint64_t rpc_bytes_in = 0;
  std::uint64_t rpc_bytes_out = 0;
  std::uint64_t rpc_active_connections = 0;  ///< Gauge at snapshot time.

  /// Calls fn(group, key, field) once per field, in GetMetrics wire order
  /// — the one list behind the RPC codec and to_string(). A new metric is
  /// a field above plus one row appended here; appending keeps older
  /// clients decoding (they read the prefix they know), while removing a
  /// row shifts every later field on the wire.
  template <class M, class Fn>
  static void for_each_field(M& m, Fn&& fn) {
    fn("ingest", "accepted", m.ratings_accepted);
    fn("ingest", "rejected", m.ratings_rejected);
    fn("ingest", "dropped", m.ratings_dropped);
    fn("ingest", "applied", m.ratings_applied);
    fn("ingest", "queue_depth", m.queue_depth);
    fn("ingest", "rate", m.ingest_rate_per_sec);
    fn("epochs", "completed", m.epochs_completed);
    fn("epochs", "detections_total", m.detections_total);
    fn("epochs", "last_epoch_detections", m.last_epoch_detections);
    fn("epochs", "latency_mean_ms", m.epoch_latency_ms_mean);
    fn("epochs", "latency_p99_ms", m.epoch_latency_ms_p99);
    fn("wal", "records", m.wal_records);
    fn("wal", "bytes", m.wal_bytes);
    fn("wal", "checkpoints", m.checkpoints_written);
    fn("memory", "matrix_bytes", m.matrix_bytes);
    fn("rpc", "accepted", m.rpc_accepted);
    fn("rpc", "rejected", m.rpc_rejected);
    fn("rpc", "requests", m.rpc_requests);
    fn("rpc", "shed", m.rpc_shed);
    fn("rpc", "bytes_in", m.rpc_bytes_in);
    fn("rpc", "bytes_out", m.rpc_bytes_out);
    fn("rpc", "active_connections", m.rpc_active_connections);
    fn("rings", "found", m.rings_found);
    fn("rings", "largest", m.ring_largest);
    fn("rings", "scan_us", m.ring_scan_us);
    fn("shards", "count", m.current_shard_count);
    fn("shards", "map_epoch", m.shard_map_epoch);
    fn("shards", "resizes", m.resizes_completed);
    fn("shards", "keys_moved_last", m.keys_moved_last_resize);
    fn("shards", "last_resize_ms", m.last_resize_ms);
    fn("parallel_epoch", "scan_threads", m.epoch_scan_threads);
    fn("parallel_epoch", "accomplice_rounds", m.accomplice_exchange_rounds);
    fn("cluster", "owned_keys", m.cluster_owned_keys);
    fn("cluster", "replica_lag", m.cluster_replica_lag);
    fn("cluster", "forwards", m.cluster_forwards);
    fn("cluster", "failovers", m.cluster_failovers);
  }

  /// One "group: key=value ..." line per group, in wire order.
  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    std::string_view open;
    for_each_field(*this, [&](std::string_view group, std::string_view key,
                              const auto& value) {
      if (group != open) {
        if (!open.empty()) os << '\n';
        os << group << ':';
        open = group;
      }
      os << ' ' << key << '=' << value;
    });
    return os.str();
  }
};

}  // namespace p2prep::service
