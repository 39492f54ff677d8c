// ManagerNode: one OS process of the multi-process manager cluster
// (DESIGN.md §16) — the paper's DHT-of-managers deployment shape made
// real. Each of the K managers in the ring is the primary of one Chord
// key range (range i == consistent-hash shard i of service::ShardMap, so
// the cluster partition is the service partition) and a replica of the
// M-1 ranges preceding it: range r is held by managers r, r+1, ...,
// r+M-1 (mod K).
//
// The node serves the manager-to-manager surface of cluster/protocol.h
// over the CRC-framed rpc:: transport: insert (with per-source dedup and
// synchronous replication to the other live holders before the ack),
// query (answered under state_mu_ from the held range's epoch-published
// engine state), state pull (canonical checkpoint bytes), colluder-set
// (the global epoch's commit, ServiceShard::commit_epoch as in the
// single-process service), ring info and rejoin. Ratings for ranges the
// node does not hold are forwarded to the holders with primary-first
// failover.
//
// Durability: each held range owns a WAL + checkpoint pair in data_dir
// (`range-<r>.wal` / `range-<r>.ckpt`, v2 codecs). A killed node
// recovers its ranges byte-identically from disk, then — if any other
// holder is alive — pulls each range's authoritative state (the other
// holders kept accepting writes while it was down), adopts it wholesale,
// re-checkpoints, and broadcasts a rejoin.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/protocol.h"
#include "managers/latency.h"
#include "rpc/client.h"
#include "service/metrics.h"
#include "service/shard.h"
#include "service/shard_map.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::cluster {

struct ManagerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ManagerNodeConfig {
  /// This node's ring index; it is the primary of key range `index`.
  std::size_t index = 0;
  /// The full ring, index-aligned: ring[i] is manager i's address. The
  /// cluster's range count K == ring.size().
  std::vector<ManagerEndpoint> ring;
  /// M: copies of each key range (primary + M-1 successors). Clamped to
  /// the ring size by valid().
  std::uint32_t replication = 1;
  /// Per-range shard configuration (num_nodes, detector, thresholds, ...).
  /// wal_dir is ignored — durability is governed by data_dir below.
  service::ServiceConfig service;
  /// Directory for this manager's per-range WAL + checkpoint files;
  /// empty runs volatile (tests).
  std::string data_dir;
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 adopts ring[index].port (0 there too = ephemeral,
  /// for tests that read port() after start).
  std::uint16_t port = 0;
  /// Peer-call budget (replication, forwards, epoch pushes).
  std::uint32_t request_timeout_ms = 5000;
  /// Connect budget for the startup resync probe — short, so a cold
  /// cluster start (no peer listening yet) is not serialized behind it.
  std::uint32_t resync_connect_timeout_ms = 500;
  /// Simulated per-hop latency injected before serving each request —
  /// managers/latency.h's model reused over the real transport, for
  /// experiments that want the paper's message-delay regime on loopback.
  /// Disabled by default: real deployments already pay real latency.
  managers::LatencyModel latency = managers::LatencyModel::disabled();

  [[nodiscard]] bool valid() const noexcept {
    return !ring.empty() && index < ring.size() && replication >= 1 &&
           replication <= ring.size() && service.num_nodes >= 2;
  }
};

class ManagerNode {
 public:
  explicit ManagerNode(ManagerNodeConfig config);
  ~ManagerNode();

  ManagerNode(const ManagerNode&) = delete;
  ManagerNode& operator=(const ManagerNode&) = delete;

  /// Recovers durable state, resyncs held ranges from live peers, binds
  /// the listen socket and starts serving. Throws std::runtime_error on
  /// bind failure or corrupt durable state.
  void start();
  /// Stops serving, joins every connection thread and (when durable)
  /// checkpoints each held range for a fast clean restart.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound port (== config port unless it was 0/ephemeral).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  /// Ranges this node holds: its own plus the M-1 it replicates.
  [[nodiscard]] std::vector<std::size_t> held_ranges() const;
  /// Metrics snapshot (the same assembly the kGetMetrics handler sends).
  [[nodiscard]] service::ServiceMetrics metrics_snapshot();

 private:
  /// One held key range: its shard state plus the per-source dedup table
  /// behind exactly-once ingest across retries and failovers.
  struct RangeStore {
    RangeStore(std::size_t range_index, const service::ServiceConfig& cfg,
               const service::ShardMap& map)
        : range(range_index), shard(range_index, cfg, map) {}
    std::size_t range;
    service::ServiceShard shard;
    /// source id -> highest applied seq (per-source streams are issued
    /// in order, so one watermark dedups every retry).
    std::unordered_map<std::uint64_t, std::uint64_t> seqs;
  };

  /// Lazily-connected client to one peer manager. `mu` serializes use of
  /// the connection; `alive` is the liveness view RingInfo reports.
  /// `lagging` records replication debt owed to this peer: range ->
  /// number of copies that failed delivery (after the retry). The debt is
  /// repaid by a kMgrResyncHint on the next successful replicate contact,
  /// or out of band by the peer's own restart resync.
  struct Peer {
    util::Mutex mu;
    std::optional<rpc::RpcClient> client P2PREP_GUARDED_BY(mu);
    std::unordered_map<std::size_t, std::uint64_t> lagging
        P2PREP_GUARDED_BY(mu);
    std::atomic<bool> alive{true};
  };

  [[nodiscard]] bool holds(std::size_t range) const noexcept;
  [[nodiscard]] std::vector<std::size_t> holders_of(
      std::size_t range) const;
  [[nodiscard]] RangeStore* store_of(std::size_t range)
      P2PREP_REQUIRES(state_mu_);

  /// One round trip to peer `idx` (never self). Serializes on the peer's
  /// connection, reconnects as needed, and tracks liveness. Must not be
  /// called with state_mu_ held — replication I/O outside the state lock
  /// is what makes mutual replication between two managers deadlock-free.
  rpc::CallResult peer_call(std::size_t idx, rpc::MsgType type,
                            const std::string& body, std::string* body_out,
                            std::uint32_t connect_timeout_ms = 0)
      P2PREP_EXCLUDES(state_mu_);

  // Startup phases.
  void recover_from_disk();
  void resync_from_peers();
  void broadcast_rejoin();

  /// Pulls `range` from its other holders and adopts a reachable peer's
  /// copy. `wholesale` (the startup resync) adopts the first reachable
  /// holder unconditionally — the peers kept accepting writes while this
  /// node was down, so their copy is authoritative. The catch-up mode
  /// (kMgrResyncHint, wholesale=false) adopts only a copy whose dedup
  /// watermarks cover every local (source, seq) — this node may hold
  /// acked failover inserts the peer lacks, which adoption must not
  /// drop. Returns true when the local copy is known caught-up after the
  /// call.
  bool resync_range(std::size_t range, std::uint32_t connect_timeout_ms,
                    bool wholesale) P2PREP_EXCLUDES(state_mu_);

  /// Peer `idx` is reachable again — it either answered a replicate call
  /// or announced itself with kMgrRejoin: sends a kMgrResyncHint for
  /// every range with recorded replication debt to it, and clears the
  /// repaid debt from Peer::lagging / replica_lag. The rejoin trigger
  /// matters on an idle cluster: without it the debt (and the gauge)
  /// would sit unrepaid until the next insert happened to land on a
  /// shared range.
  void repair_lagging(std::size_t idx) P2PREP_EXCLUDES(state_mu_);

  // Serving.
  void accept_loop();
  void serve_connection(int fd);
  /// Dispatches one decoded request; returns the full framed response.
  /// A successful kMgrRejoin sets `*rejoined_peer` to the rejoined ring
  /// index — the caller repays that peer's replication debt after the
  /// response is on the wire (not inside the handler: the rejoiner's
  /// broadcast_rejoin blocks on this reply, and a hint sent before it
  /// would stall behind the rejoiner's own startup traffic).
  std::string handle_request(std::string_view payload,
                             std::size_t* rejoined_peer);

  // Per-type handlers; each returns (status, body bytes).
  rpc::Status handle_insert(rpc::Reader& r, std::string& body);
  rpc::Status handle_replicate(rpc::Reader& r, std::string& body);
  rpc::Status handle_query(rpc::Reader& r, std::string& body);
  rpc::Status handle_state_pull(rpc::Reader& r, std::string& body);
  rpc::Status handle_colluder_set(rpc::Reader& r, std::string& body);
  rpc::Status handle_ring_info(std::string& body);
  rpc::Status handle_rejoin(rpc::Reader& r, std::string& body,
                            std::size_t* rejoined_peer);
  rpc::Status handle_resync_hint(rpc::Reader& r, std::string& body);
  rpc::Status handle_get_metrics(std::string& body);

  /// Synchronously copies an accepted rating to every other holder of
  /// `range`, retrying each failed copy once (a transient timeout must
  /// not strand a live replica). A copy that still fails marks the peer
  /// dead and records the debt in Peer::lagging / replica_lag; the next
  /// successful replicate contact with that peer sends a kMgrResyncHint
  /// so it re-pulls the range, repaying the debt without a restart.
  void replicate(std::size_t range, const MgrReplicateRequest& req)
      P2PREP_EXCLUDES(state_mu_);

  [[nodiscard]] std::string range_wal_path(std::size_t range) const;
  [[nodiscard]] std::string range_ckpt_path(std::size_t range) const;

  ManagerNodeConfig config_;
  service::ShardMap map_;
  std::uint64_t owned_keys_ = 0;  ///< Ids whose owner range == index_.

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread accept_thread_;

  mutable util::Mutex state_mu_;
  /// Held ranges, ascending by range index.
  std::vector<std::unique_ptr<RangeStore>> stores_ P2PREP_GUARDED_BY(
      state_mu_);

  std::vector<std::unique_ptr<Peer>> peers_;  ///< Index-aligned; self null.

  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> replica_lag_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
};

}  // namespace p2prep::cluster
