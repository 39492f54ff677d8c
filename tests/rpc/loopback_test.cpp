// Loopback integration tests for the RPC front-end: a real RpcServer on an
// ephemeral 127.0.0.1 port, exercised through RpcClient for the RPCs
// and through a raw socket for the adversarial paths (unknown type,
// version skew, corrupt frames, slowloris stalls, connection-limit
// GoAway) that a well-behaved client never produces.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rating/types.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "service/service.h"

namespace p2prep::rpc {
namespace {

using rating::Rating;
using rating::Score;

service::ServiceConfig svc_config(std::size_t nodes = 64) {
  service::ServiceConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_shards = 2;
  cfg.epoch_ratings = 1u << 30;  // epochs only via force_epoch()
  cfg.record_reports = false;
  return cfg;
}

RpcClientConfig client_config(std::uint16_t port) {
  RpcClientConfig cfg;
  cfg.port = port;
  cfg.request_timeout_ms = 5000;
  return cfg;
}

/// Minimal raw TCP peer speaking just enough framing to misbehave.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  bool send_bytes(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Receives one complete frame's payload; nullopt on EOF, timeout, or a
  /// corrupt stream.
  std::optional<std::string> recv_frame(int timeout_ms = 3000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      std::string_view payload;
      std::size_t consumed = 0;
      switch (try_decode_frame(buf_, kDefaultMaxFrameBytes, &payload,
                               &consumed)) {
        case FrameResult::kFrame: {
          std::string out(payload);
          buf_.erase(0, consumed);
          return out;
        }
        case FrameResult::kError:
          return std::nullopt;
        case FrameResult::kNeedMore:
          break;
      }
      if (!read_some(deadline)) return std::nullopt;
    }
  }

  /// True when the peer closes the connection within timeout_ms.
  bool wait_eof(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      pollfd p{fd_, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return true;  // EOF or reset — either way, closed
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  bool read_some(std::chrono::steady_clock::time_point deadline) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd p{fd_, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now)
                          .count();
    if (::poll(&p, 1, static_cast<int>(left)) <= 0) return false;
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

std::string framed_request(std::uint8_t version, std::uint8_t type,
                           std::uint64_t request_id,
                           std::string_view body = {}) {
  std::string payload;
  put_u8(payload, version);
  put_u8(payload, type);
  put_u64(payload, request_id);
  payload.append(body);
  return encode_frame(payload);
}

std::optional<ResponseHeader> parse_response(const std::string& payload) {
  Reader r(payload);
  ResponseHeader h;
  if (!decode_response_header(r, h)) return std::nullopt;
  return h;
}

TEST(RpcLoopback, AllSixRpcsRoundTrip) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RpcClient client(client_config(server.port()));
  ASSERT_TRUE(client.connect());

  // Ping.
  EXPECT_EQ(client.ping().status, Status::kOk);

  // SubmitRating: valid accepted, self-rating rejected as invalid.
  EXPECT_EQ(client.submit_rating({1, 2, Score::kPositive, 1}).status,
            Status::kOk);
  EXPECT_EQ(client.submit_rating({5, 5, Score::kPositive, 1}).status,
            Status::kInvalidArgument);

  // SubmitBatch: mixed validity; invalid entries are counted, not fatal.
  std::vector<Rating> batch;
  for (std::uint32_t k = 0; k < 20; ++k)
    batch.push_back({k % 8, (k % 8) + 8,
                     k % 2 == 0 ? Score::kPositive : Score::kNegative,
                     10 + k});
  batch.push_back({3, 3, Score::kPositive, 99});  // self-rating → rejected
  const auto outcome = client.submit_batch(batch);
  EXPECT_TRUE(outcome.complete) << outcome.error;
  EXPECT_EQ(outcome.accepted, 20u);
  EXPECT_EQ(outcome.rejected, 1u);

  svc.force_epoch();
  svc.drain();

  // QueryReputation agrees with the service's own snapshot.
  const service::ServiceSnapshot snap = svc.snapshot();
  QueryReputationResponse rep;
  ASSERT_EQ(client.query_reputation(9, &rep).status, Status::kOk);
  EXPECT_EQ(rep.reputation, snap.reputation(9));
  EXPECT_EQ(rep.suspected != 0, snap.suspected(9));
  EXPECT_EQ(rep.shard, svc.shard_of(9));

  // QueryColluders agrees with a full snapshot scan.
  std::vector<rating::NodeId> expected;
  for (rating::NodeId i = 0; i < svc.config().num_nodes; ++i)
    if (snap.suspected(i)) expected.push_back(i);
  QueryColludersResponse col;
  ASSERT_EQ(client.query_colluders(&col).status, Status::kOk);
  EXPECT_EQ(col.colluders, expected);
  EXPECT_EQ(col.total_suspected, expected.size());
  EXPECT_EQ(col.truncated, 0);

  // GetMetrics reflects both service and RPC traffic.
  service::ServiceMetrics m;
  ASSERT_EQ(client.get_metrics(&m).status, Status::kOk);
  EXPECT_EQ(m.ratings_accepted, 21u);  // 1 single + 20 batch
  EXPECT_EQ(m.ratings_applied, 21u);
  EXPECT_GE(m.rpc_requests, 6u);
  EXPECT_EQ(m.rpc_active_connections, 1u);
  EXPECT_GT(m.rpc_bytes_in, 0u);
  EXPECT_GT(m.rpc_bytes_out, 0u);
  EXPECT_EQ(m.rpc_shed, 0u);

  svc.stop();
}

TEST(RpcLoopback, ResizeRpcGrowsTheServiceOnline) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RpcClient client(client_config(server.port()));
  ASSERT_TRUE(client.connect());

  for (std::uint32_t k = 0; k < 30; ++k)
    ASSERT_EQ(client.submit_rating({k % 8, (k % 8) + 8, Score::kPositive,
                                    k}).status,
              Status::kOk);

  ResizeResponse out;
  ASSERT_EQ(client.resize(4, &out).status, Status::kOk);
  EXPECT_EQ(out.num_shards, 4u);
  EXPECT_GT(out.keys_moved, 0u);
  EXPECT_EQ(svc.num_shards(), 4u);

  // The service keeps serving at the new width on the same connection.
  EXPECT_EQ(client.submit_rating({1, 2, Score::kPositive, 99}).status,
            Status::kOk);
  QueryReputationResponse rep;
  ASSERT_EQ(client.query_reputation(9, &rep).status, Status::kOk);
  EXPECT_EQ(rep.shard, svc.shard_of(9));

  // Metrics carry the new shard-map gauges over the wire.
  service::ServiceMetrics m;
  ASSERT_EQ(client.get_metrics(&m).status, Status::kOk);
  EXPECT_EQ(m.current_shard_count, 4u);
  EXPECT_EQ(m.shard_map_epoch, 1u);
  EXPECT_EQ(m.resizes_completed, 1u);
  EXPECT_EQ(m.keys_moved_last_resize, out.keys_moved);

  svc.drain();
  svc.stop();
}

TEST(RpcLoopback, InvalidResizeIsRejectedWithCurrentWidth) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RpcClient client(client_config(server.port()));
  ASSERT_TRUE(client.connect());

  ResizeResponse out;
  EXPECT_EQ(client.resize(0, &out).status, Status::kInvalidArgument);
  EXPECT_EQ(out.num_shards, 2u);  // the failure response reports reality
  EXPECT_EQ(client.ping().status, Status::kOk);  // connection survives
  svc.stop();
}

TEST(RpcLoopback, QueryOutOfRangeNodeIsInvalidArgument) {
  service::ReputationService svc(svc_config(16));
  RpcServer server(svc, RpcServerConfig{});
  RpcClient client(client_config(server.port()));
  ASSERT_TRUE(client.connect());

  QueryReputationResponse rep;
  EXPECT_EQ(client.query_reputation(16, &rep).status,
            Status::kInvalidArgument);
  EXPECT_EQ(client.ping().status, Status::kOk);  // connection survives
  svc.stop();
}

TEST(RpcLoopback, UnknownTypeAnsweredWithoutDroppingConnection) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());

  ASSERT_TRUE(raw.send_bytes(framed_request(kProtocolVersion, 0x55, 7)));
  auto payload = raw.recv_frame();
  ASSERT_TRUE(payload.has_value());
  auto h = parse_response(*payload);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->status, Status::kUnsupportedType);
  EXPECT_EQ(h->request_id, 7u);

  // Frame boundaries stayed trustworthy: a good request still works.
  ASSERT_TRUE(raw.send_bytes(framed_request(
      kProtocolVersion, static_cast<std::uint8_t>(MsgType::kPing), 8)));
  payload = raw.recv_frame();
  ASSERT_TRUE(payload.has_value());
  h = parse_response(*payload);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->status, Status::kOk);
  svc.stop();
}

// The server stops reading at a short recv() and relies on poll() waking
// it for whatever is left: pipelined requests in one segment and a
// request trickled in byte by byte are both answered, in order.
TEST(RpcLoopback, PipelinedAndBytewiseRequestsAnsweredInOrder) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());
  const auto ping = [](std::uint64_t request_id) {
    return framed_request(kProtocolVersion,
                          static_cast<std::uint8_t>(MsgType::kPing),
                          request_id);
  };
  const auto expect_ok_reply = [&raw](std::uint64_t request_id) {
    const auto payload = raw.recv_frame();
    ASSERT_TRUE(payload.has_value()) << "no reply to " << request_id;
    const auto h = parse_response(*payload);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->status, Status::kOk);
    EXPECT_EQ(h->request_id, request_id);
  };

  ASSERT_TRUE(raw.send_bytes(ping(1) + ping(2) + ping(3)));
  for (std::uint64_t id = 1; id <= 3; ++id) expect_ok_reply(id);

  for (const char byte : ping(4)) {
    ASSERT_TRUE(raw.send_bytes(std::string_view(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  expect_ok_reply(4);
  svc.stop();
}

TEST(RpcLoopback, VersionSkewAnsweredWithoutDroppingConnection) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());

  ASSERT_TRUE(raw.send_bytes(framed_request(
      kProtocolVersion + 1, static_cast<std::uint8_t>(MsgType::kPing), 3)));
  const auto payload = raw.recv_frame();
  ASSERT_TRUE(payload.has_value());
  const auto h = parse_response(*payload);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->status, Status::kUnsupportedVersion);
  EXPECT_EQ(h->request_id, 3u);
  svc.stop();
}

TEST(RpcLoopback, CorruptCrcDropsConnection) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());

  std::string bad = framed_request(
      kProtocolVersion, static_cast<std::uint8_t>(MsgType::kPing), 1);
  bad[4] = static_cast<char>(bad[4] ^ 0xff);  // CRC field
  ASSERT_TRUE(raw.send_bytes(bad));
  EXPECT_TRUE(raw.wait_eof(3000));
  EXPECT_GE(server.stats().protocol_errors, 1u);
  svc.stop();
}

TEST(RpcLoopback, OversizedLengthDropsConnection) {
  service::ReputationService svc(svc_config());
  RpcServer server(svc, RpcServerConfig{});
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());

  std::string hostile;
  put_u32(hostile, 0xffffffffu);  // 4 GiB frame claim
  put_u32(hostile, 0);
  ASSERT_TRUE(raw.send_bytes(hostile));
  EXPECT_TRUE(raw.wait_eof(3000));
  svc.stop();
}

TEST(RpcLoopback, IdleConnectionIsClosed) {
  service::ReputationService svc(svc_config());
  RpcServerConfig cfg;
  cfg.idle_timeout_ms = 100;
  RpcServer server(svc, cfg);
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());

  EXPECT_TRUE(raw.wait_eof(3000));
  EXPECT_GE(server.stats().idle_closed, 1u);
  svc.stop();
}

TEST(RpcLoopback, StalledPartialFrameIsClosed) {
  // Slowloris guard: half a frame then silence must not hold the
  // connection open until the (much longer) idle timeout.
  service::ReputationService svc(svc_config());
  RpcServerConfig cfg;
  cfg.request_timeout_ms = 100;
  cfg.idle_timeout_ms = 60000;
  RpcServer server(svc, cfg);
  RawConn raw(server.port());
  ASSERT_TRUE(raw.connected());

  const std::string frame = framed_request(
      kProtocolVersion, static_cast<std::uint8_t>(MsgType::kPing), 1);
  ASSERT_TRUE(raw.send_bytes(frame.substr(0, frame.size() - 3)));
  EXPECT_TRUE(raw.wait_eof(3000));
  EXPECT_GE(server.stats().request_timeouts, 1u);
  svc.stop();
}

TEST(RpcLoopback, ConnectionLimitSendsGoAwayWithBackoffHint) {
  service::ReputationService svc(svc_config());
  RpcServerConfig cfg;
  cfg.max_connections = 1;
  cfg.shed_backoff_ms = 75;
  RpcServer server(svc, cfg);

  RpcClient first(client_config(server.port()));
  ASSERT_TRUE(first.connect());
  ASSERT_EQ(first.ping().status, Status::kOk);  // slot is definitely taken

  RawConn second(server.port());
  ASSERT_TRUE(second.connected());  // kernel accepts; server refuses
  const auto payload = second.recv_frame();
  ASSERT_TRUE(payload.has_value());
  const auto h = parse_response(*payload);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->type, static_cast<std::uint8_t>(MsgType::kGoAway));
  EXPECT_EQ(h->request_id, 0u);
  EXPECT_EQ(h->status, Status::kRetryLater);
  EXPECT_EQ(h->backoff_hint_ms, 75u);
  EXPECT_TRUE(second.wait_eof(3000));
  EXPECT_GE(server.stats().connections_rejected, 1u);
  svc.stop();
}

TEST(RpcLoopback, ClientTimesOutAgainstSilentServer) {
  // A listener that never accepts or answers: the kernel completes the TCP
  // handshake from the backlog, so connect succeeds and the request-level
  // deadline is what must fire.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  RpcClientConfig cfg;
  cfg.port = ntohs(addr.sin_port);
  cfg.request_timeout_ms = 150;
  RpcClient client(cfg);
  ASSERT_TRUE(client.connect());

  const auto start = std::chrono::steady_clock::now();
  const CallResult res = client.ping();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(res.ok);
  EXPECT_LT(elapsed, 5000);
  EXPECT_FALSE(client.connected());  // timeout tears the connection down
  EXPECT_GE(client.stats().transport_errors, 1u);
  ::close(listen_fd);
}

TEST(RpcLoopback, GracefulShutdownStopsServingAndAccepting) {
  service::ReputationService svc(svc_config());
  auto server = std::make_unique<RpcServer>(svc, RpcServerConfig{});
  const std::uint16_t port = server->port();

  RpcClient client(client_config(port));
  ASSERT_TRUE(client.connect());
  ASSERT_EQ(client.submit_rating({1, 2, Score::kPositive, 1}).status,
            Status::kOk);

  server->shutdown();

  // The drained connection is closed; a fresh connect finds no listener.
  EXPECT_FALSE(client.ping().ok);
  RpcClient late(client_config(port));
  EXPECT_FALSE(late.connect());

  // The accepted rating survived into the service.
  svc.force_epoch();
  svc.drain();
  EXPECT_EQ(svc.metrics().ratings_applied, 1u);
  server.reset();
  svc.stop();
}

}  // namespace
}  // namespace p2prep::rpc
