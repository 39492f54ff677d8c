// Multi-process failover: real `p2prep_cli manager` processes on
// loopback, a real SIGKILL mid-ingest. Pins the acceptance claims of the
// cluster subsystem:
//   * a 3-manager M=2 cluster keeps acknowledging inserts after the
//     primary of a range is killed -9 (client-side failover), with zero
//     acknowledged-rating loss — every acked rating is applied exactly
//     once somewhere in the cluster;
//   * the killed manager restarts from its data-dir, resyncs from the
//     surviving holders, and its range state matches the survivor's byte
//     for byte (modulo WAL-position fields, which legitimately differ
//     after a recovery);
//   * the whole killed-and-recovered cluster's state matches a
//     never-killed control cluster fed the same trace.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/protocol.h"
#include "service/wal.h"
#include "tests/cluster/reserved_port.h"
#include "tests/differential/trace_gen.h"

namespace p2prep::cluster {
namespace {

namespace fs = std::filesystem;

bool port_open(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

bool wait_for_port(std::uint16_t port, int timeout_ms = 15000) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (port_open(port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

std::string ring_spec(const std::vector<ManagerEndpoint>& ring) {
  std::string spec;
  for (const auto& ep : ring) {
    if (!spec.empty()) spec += ',';
    spec += ep.host + ':' + std::to_string(ep.port);
  }
  return spec;
}

/// One `p2prep_cli manager` child process.
class ManagerProcess {
 public:
  ManagerProcess() = default;
  ~ManagerProcess() { kill_now(); }

  void spawn(std::size_t index, const std::vector<ManagerEndpoint>& ring,
             std::size_t num_nodes, const fs::path& data_dir) {
    const std::vector<std::string> args = {
        "p2prep_cli",    "manager",
        "--index",       std::to_string(index),
        "--ring",        ring_spec(ring),
        "--replication", "2",
        "--nodes",       std::to_string(num_nodes),
        "--data-dir",    data_dir.string()};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::execv(P2PREP_CLI_PATH, argv.data());
      ::_exit(127);  // exec failed
    }
    ASSERT_TRUE(wait_for_port(ring[index].port))
        << "manager " << index << " never opened port " << ring[index].port;
  }

  /// SIGKILL — the crash under test, and the teardown hammer.
  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] bool running() const noexcept { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
};

/// Canonical state bytes with the WAL-position fields zeroed: a recovered
/// node's wal_generation legitimately differs from a never-restarted one,
/// but everything else must match byte for byte.
std::string normalized(const std::string& blob) {
  auto ckpt = service::parse_checkpoint(blob);
  EXPECT_TRUE(ckpt.has_value()) << "state blob is not a valid checkpoint";
  if (!ckpt) return {};
  ckpt->wal_generation = 0;
  ckpt->wal_records_applied = 0;
  return service::encode_checkpoint(*ckpt);
}

constexpr std::size_t kRingSize = 3;

class ClusterFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("p2prep_cluster_failover_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  struct Cluster {
    std::vector<testutil::ReservedPort> ports;  // outlive the processes
    std::vector<ManagerEndpoint> ring;
    std::vector<ManagerProcess> procs{kRingSize};
    fs::path dir;
  };

  void start_cluster(Cluster& c, const std::string& name,
                     std::size_t num_nodes) {
    c.dir = root_ / name;
    for (std::size_t i = 0; i < kRingSize; ++i) {
      c.ports.emplace_back();
      c.ring.push_back({"127.0.0.1", c.ports.back().port()});
    }
    for (std::size_t i = 0; i < kRingSize; ++i)
      c.procs[i].spawn(i, c.ring, num_nodes,
                       c.dir / ("mgr" + std::to_string(i)));
  }

  static ClusterClientConfig client_config(const Cluster& c,
                                           std::size_t num_nodes,
                                           std::uint64_t source) {
    ClusterClientConfig cfg;
    cfg.ring = c.ring;
    cfg.replication = 2;
    cfg.num_nodes = num_nodes;
    cfg.source = source;
    cfg.connect_timeout_ms = 1000;
    cfg.request_timeout_ms = 5000;
    return cfg;
  }

  fs::path root_;
};

TEST_F(ClusterFailoverTest, Kill9MidIngestLosesNoAcknowledgedRating) {
  const testgen::Trace t = testgen::make_trace(7);
  Cluster live;
  start_cluster(live, "live", t.n);
  Cluster control;
  start_cluster(control, "control", t.n);

  ClusterClient live_client(client_config(live, t.n, 1));
  ClusterClient control_client(client_config(control, t.n, 1));

  // Ingest the first half, then SIGKILL manager 1 — the primary of range
  // 1 and a replica of range 0 — and keep ingesting. Every insert after
  // the kill must still be acknowledged (range-1 inserts by the surviving
  // holder, range-0 inserts by a primary running with a dead replica).
  std::uint64_t acked = 0;
  const std::size_t half = t.ratings.size() / 2;
  for (std::size_t i = 0; i < t.ratings.size(); ++i) {
    if (i == half) live.procs[1].kill_now();
    ASSERT_TRUE(live_client.insert(t.ratings[i])) << "rating " << i;
    ++acked;
    ASSERT_TRUE(control_client.insert(t.ratings[i])) << "rating " << i;
  }
  ASSERT_EQ(acked, t.ratings.size());
  EXPECT_GT(live_client.failovers(), 0u);

  // Zero acknowledged loss: summing applied_total over the three ranges
  // (one authoritative copy each) accounts for every acked rating exactly
  // once.
  std::uint64_t applied = 0;
  std::vector<std::string> live_blobs(kRingSize);
  for (std::size_t range = 0; range < kRingSize; ++range) {
    const auto state = live_client.pull_state(range);
    ASSERT_TRUE(state.has_value()) << "range " << range;
    const auto ckpt = service::parse_checkpoint(state->blob);
    ASSERT_TRUE(ckpt.has_value()) << "range " << range;
    applied += ckpt->applied_total;
    live_blobs[range] = state->blob;
  }
  EXPECT_EQ(applied, acked);

  // The killed-and-failed-over cluster holds the same state as the
  // never-killed control cluster, range by range.
  for (std::size_t range = 0; range < kRingSize; ++range) {
    const auto state = control_client.pull_state(range);
    ASSERT_TRUE(state.has_value()) << "range " << range;
    EXPECT_EQ(normalized(live_blobs[range]), normalized(state->blob))
        << "range " << range << " diverged from the control cluster";
  }

  // Restart the killed manager over its surviving data-dir: it recovers
  // from disk, resyncs the writes it missed from the live holders, and
  // serves range 1 with state byte-identical to the survivor's.
  live.procs[1].spawn(1, live.ring, t.n, live.dir / "mgr1");
  ClusterClient fresh(client_config(live, t.n, 2));
  rpc::RpcClientConfig cc;
  cc.host = live.ring[1].host;
  cc.port = live.ring[1].port;
  cc.max_frame_bytes = kClusterMaxFrameBytes;
  rpc::RpcClient direct(cc);
  ASSERT_TRUE(direct.connect());
  MgrStatePullRequest pull;
  pull.range = 1;
  std::string body;
  pull.encode(body);
  std::string resp_body;
  const rpc::CallResult res =
      direct.call_raw(rpc::MsgType::kMgrStatePull, body, &resp_body);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, rpc::Status::kOk);
  rpc::Reader reader(resp_body);
  const auto restarted = MgrStatePullResponse::decode(reader);
  ASSERT_TRUE(restarted.has_value());
  EXPECT_EQ(normalized(restarted->blob), normalized(live_blobs[1]))
      << "restarted manager diverged from the copy that served the outage";

  // And the revived cluster keeps taking writes on the primary again.
  const rating::NodeId some = 0;
  const rating::NodeId other = 1;
  ASSERT_TRUE(fresh.insert({some, other, rating::Score::kPositive,
                            static_cast<rating::Tick>(1u << 20)}));
}

}  // namespace
}  // namespace p2prep::cluster
