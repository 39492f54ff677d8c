// TCP front-end of the reputation service: a poll()-based event-loop
// server that speaks the rpc/protocol.h wire format and dispatches into
// ReputationService (DESIGN.md "Network RPC front-end").
//
// Threading model: N acceptor-workers, each running its own poll() loop
// over (a) the shared listening socket — whichever worker wakes first
// accepts, and owns the connection for its lifetime — and (b) its own
// connections' sockets. Connections never migrate between workers, so all
// per-connection state (read/write buffers, deadlines) is worker-local and
// lock-free; the only cross-thread state is the atomic counters and the
// lifecycle flags.
//
// Overload control (doorman-style shedding, after nginx-overload-handler):
// the server never blocks its event loop on a saturated service. Three
// admission gates, all surfaced as rpc_* counters in ServiceMetrics:
//  * accept:   beyond max_connections, the connection gets one kGoAway
//              (kRetryLater + backoff hint) frame and is closed.
//  * inflight: a submit hands the service at most max_inflight minus the
//              admitted-but-unhandled record count (queue_depth(), two
//              atomic loads) ratings; the rest is answered kRetryLater.
//  * ingest:   each submit is one non-blocking ingest_batch call; a full
//              owner-shard queue ends it with kRetryLater and the backoff
//              hint instead of blocking. The response reports the consumed
//              prefix so the client resubmits only the remainder.
// Queries and metrics reads are never shed — they only touch immutable
// published snapshots.
//
// Robustness: per-connection idle timeout (no traffic at all) and request
// timeout (a partial frame that never completes — slowloris guard); frames
// failing length or CRC checks drop the connection, while well-framed but
// unknown/mis-versioned requests get a status response and the connection
// lives on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rpc/protocol.h"
#include "service/metrics.h"
#include "service/service.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::rpc {

struct RpcServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; RpcServer::port() reports the actual one.
  std::uint16_t port = 0;
  std::size_t num_workers = 2;
  /// Accept gate: connections beyond this are refused with kGoAway.
  std::size_t max_connections = 256;
  /// Inflight gate: submits shed while the service's total queue depth is
  /// at or above this budget (admitted-but-unapplied ratings).
  std::size_t max_inflight = 1 << 16;
  /// Close connections with no traffic for this long.
  std::uint32_t idle_timeout_ms = 30000;
  /// Close connections whose partial frame stalls for this long.
  std::uint32_t request_timeout_ms = 10000;
  /// Backoff hint sent with every kRetryLater shed.
  std::uint32_t shed_backoff_ms = 50;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cap on colluder ids in one QueryColluders response.
  std::size_t max_colluders_per_response = 4096;

  [[nodiscard]] bool valid() const noexcept {
    return num_workers >= 1 && max_connections >= 1 && max_inflight >= 1 &&
           idle_timeout_ms > 0 && request_timeout_ms > 0 &&
           max_frame_bytes >= 64;
  }
};

/// Point-in-time counter snapshot (also exported into ServiceMetrics'
/// rpc_* fields via fill_metrics()).
struct RpcServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< Refused at max_connections.
  std::uint64_t active_connections = 0;    ///< Gauge.
  std::uint64_t requests = 0;              ///< Complete frames decoded.
  std::uint64_t responses = 0;
  std::uint64_t shed = 0;                  ///< kRetryLater answers.
  std::uint64_t protocol_errors = 0;       ///< Corrupt frames/payloads.
  std::uint64_t idle_closed = 0;
  std::uint64_t request_timeouts = 0;      ///< Stalled-partial-frame closes.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class RpcServer {
 public:
  /// Binds, listens and starts the workers; throws std::runtime_error when
  /// the socket cannot be set up or the config is invalid. `service` must
  /// outlive the server.
  RpcServer(service::ReputationService& service, RpcServerConfig config);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// The port actually bound (== config.port unless that was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown: stop accepting, answer in-flight requests, flush
  /// write buffers, then close. Connections still open after `grace_ms`
  /// are torn down. Idempotent; the destructor calls it implicitly.
  void shutdown(std::uint32_t grace_ms = 1000);

  [[nodiscard]] RpcServerStats stats() const;
  /// Copies the counters into the ServiceMetrics rpc_* fields, so serve
  /// and serve-replay report through one dump (and GetMetrics returns the
  /// server's own traffic).
  void fill_metrics(service::ServiceMetrics& m) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    int fd = -1;
    std::string rbuf;
    std::string wbuf;
    Clock::time_point last_activity;
    /// Set while rbuf holds unhandled bytes; restarts at each handled
    /// frame (request-timeout clock).
    std::optional<Clock::time_point> partial_since;
    bool failed = false;  ///< Corrupt stream; close without draining.
  };

  struct Worker {
    std::thread thread;
    int wake_rd = -1;  ///< Self-pipe: shutdown() wakes the poll loop.
    int wake_wr = -1;
    std::vector<Connection> conns;  ///< Owned by this worker's thread only.
  };

  void worker_loop(std::size_t index);
  void accept_ready(Worker& w);
  /// Reads the available bytes, stopping at the first short read or once
  /// rbuf holds more than max_frame_bytes; returns false when the
  /// connection died.
  bool read_ready(Connection& c);
  /// Decodes and handles the complete frames in c.rbuf until the backlog
  /// gate closes; returns false on a corrupt stream.
  bool process_frames(Connection& c);
  /// Whether c's unsent responses exceed max_frame_bytes. While they do,
  /// the connection is neither read nor answered further.
  [[nodiscard]] bool backlogged(const Connection& c) const {
    return c.wbuf.size() > config_.max_frame_bytes;
  }
  void handle_payload(Connection& c, std::string_view payload);
  /// Flushes as much of c.wbuf as the socket accepts; false when dead.
  bool flush_writes(Connection& c);
  void close_connection(Connection& c);

  /// SubmitRating and SubmitBatch: one non-blocking ingest_batch() over
  /// `ratings` cut to the inflight budget; `tally` gets the consumed prefix.
  Status submit(std::span<const rating::Rating> ratings,
                SubmitBatchResponse& tally);
  void handle_query_reputation(Reader& r, ResponseHeader& resp,
                               std::string& body);
  void handle_query_colluders(ResponseHeader& resp, std::string& body);
  void handle_get_metrics(std::string& body);
  /// Admin resize. Runs on the event-loop thread, so the server answers
  /// nothing else during the handoff window — acceptable for an
  /// operator-rate operation.
  void handle_resize(Reader& r, ResponseHeader& resp, std::string& body);
  [[nodiscard]] std::string goaway_frame(Status status) const;

  service::ReputationService* service_;
  RpcServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Lifecycle. draining_: stop accepting, finish in-flight work and close
  // idle connections cleanly. stop_now_: tear everything down.
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_now_{false};
  util::Mutex shutdown_mu_;
  bool shutdown_done_ P2PREP_GUARDED_BY(shutdown_mu_) = false;

  // Counters (RpcServerStats).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
  std::atomic<std::uint64_t> request_timeouts_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace p2prep::rpc
