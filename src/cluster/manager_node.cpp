#include "cluster/manager_node.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "service/wal.h"
#include "util/rng.h"

namespace p2prep::cluster {

namespace {

/// Poll tick of every blocking loop; bounds stop() latency.
constexpr int kPollTickMs = 100;

/// "No peer rejoined in this request" sentinel for handle_request's
/// rejoined_peer out-parameter.
constexpr std::size_t kNoPeer = static_cast<std::size_t>(-1);

bool send_all_fd(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ManagerNode::ManagerNode(ManagerNodeConfig config)
    : config_(std::move(config)),
      map_(config_.ring.size(), config_.service.num_nodes) {
  if (!config_.valid())
    throw std::invalid_argument("manager node: invalid configuration");
  // The per-range shards share one config; range count == shard count so
  // the cluster partition is exactly the service partition.
  config_.service.num_shards = config_.ring.size();
  config_.service.wal_dir.clear();  // durability goes through data_dir
  owned_keys_ =
      map_.row_index()->nodes(static_cast<std::uint32_t>(config_.index)).size();
  peers_.resize(config_.ring.size());
  for (std::size_t i = 0; i < config_.ring.size(); ++i)
    if (i != config_.index) peers_[i] = std::make_unique<Peer>();
  {
    const util::MutexLock lock(state_mu_);
    for (std::size_t r : held_ranges()) {
      auto store = std::make_unique<RangeStore>(r, config_.service, map_);
      store->shard.set_shard_map_stamp(0, map_);
      stores_.push_back(std::move(store));
    }
  }
}

ManagerNode::~ManagerNode() { stop(); }

bool ManagerNode::holds(std::size_t range) const noexcept {
  const std::size_t k = config_.ring.size();
  // Wire-supplied ranges reach this unvalidated; without the bound check
  // a range >= k would underflow the offset arithmetic below and could
  // alias to a held offset for a range no store exists for.
  if (range >= k) return false;
  // range r is held by r, r+1, ..., r+M-1 (mod k).
  const std::size_t offset = (config_.index + k - range) % k;
  return offset < config_.replication;
}

std::vector<std::size_t> ManagerNode::holders_of(std::size_t range) const {
  std::vector<std::size_t> holders;
  holders.reserve(config_.replication);
  for (std::uint32_t i = 0; i < config_.replication; ++i)
    holders.push_back((range + i) % config_.ring.size());
  return holders;
}

std::vector<std::size_t> ManagerNode::held_ranges() const {
  std::vector<std::size_t> ranges;
  for (std::size_t r = 0; r < config_.ring.size(); ++r)
    if (holds(r)) ranges.push_back(r);
  return ranges;
}

ManagerNode::RangeStore* ManagerNode::store_of(std::size_t range) {
  for (const auto& store : stores_)
    if (store->range == range) return store.get();
  return nullptr;
}

std::string ManagerNode::range_wal_path(std::size_t range) const {
  return config_.data_dir + "/range-" + std::to_string(range) + ".wal";
}

std::string ManagerNode::range_ckpt_path(std::size_t range) const {
  return config_.data_dir + "/range-" + std::to_string(range) + ".ckpt";
}

// --- Peer transport ---------------------------------------------------------

rpc::CallResult ManagerNode::peer_call(std::size_t idx, rpc::MsgType type,
                                       const std::string& body,
                                       std::string* body_out,
                                       std::uint32_t connect_timeout_ms) {
  Peer& peer = *peers_[idx];
  const util::MutexLock lock(peer.mu);
  if (!peer.client) {
    rpc::RpcClientConfig cc;
    cc.host = config_.ring[idx].host;
    cc.port = config_.ring[idx].port;
    cc.request_timeout_ms = config_.request_timeout_ms;
    if (connect_timeout_ms != 0) cc.connect_timeout_ms = connect_timeout_ms;
    // State-pull responses carry a whole key range in one frame.
    cc.max_frame_bytes = kClusterMaxFrameBytes;
    peer.client.emplace(cc);
  }
  if (!peer.client->connected()) {
    std::string err;
    if (!peer.client->connect(&err)) {
      peer.alive.store(false, std::memory_order_relaxed);
      rpc::CallResult res;
      res.ok = false;
      res.error = "connect to manager " + std::to_string(idx) + ": " + err;
      return res;
    }
  }
  rpc::CallResult res = peer.client->call_raw(type, body, body_out);
  peer.alive.store(res.ok, std::memory_order_relaxed);
  return res;
}

// --- Startup ----------------------------------------------------------------

void ManagerNode::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  if (!config_.data_dir.empty()) {
    std::filesystem::create_directories(config_.data_dir);
    recover_from_disk();
  }
  resync_from_peers();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("manager node: socket() failed: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  std::uint16_t want_port =
      config_.port != 0 ? config_.port : config_.ring[config_.index].port;
  addr.sin_port = htons(want_port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("manager node: bad bind address '" +
                             config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("manager node: bind/listen on " +
                             config_.bind_address + ":" +
                             std::to_string(want_port) + " failed: " +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  broadcast_rejoin();
}

void ManagerNode::recover_from_disk() {
  const util::MutexLock lock(state_mu_);
  for (const auto& store : stores_) {
    const std::string wal_path = range_wal_path(store->range);
    const std::string ckpt_path = range_ckpt_path(store->range);
    const auto ckpt = service::read_checkpoint(ckpt_path);
    const auto wal = service::read_wal(wal_path);
    // The service's recovery rule: a WAL older than its checkpoint, or
    // shorter than the checkpoint claims, refuses start-up.
    const service::WalResume resume = service::wal_resume_point(ckpt, wal);
    if (ckpt) store->shard.restore(*ckpt);
    for (std::size_t i = resume.first_record; i < wal.records.size(); ++i) {
      if (wal.records[i].kind != service::WalRecordKind::kRating) continue;
      store->shard.apply_rating(wal.records[i].rating);
    }
    if (wal.found) {
      store->shard.attach_wal(service::WalWriter::resume(
          wal_path, resume.generation, wal.map_epoch, wal.num_shards,
          wal.valid_bytes, wal.records.size()));
    } else {
      store->shard.attach_wal(service::WalWriter::create(
          wal_path, resume.generation, 0,
          static_cast<std::uint32_t>(config_.ring.size())));
    }
  }
}

void ManagerNode::resync_from_peers() {
  // For each held range, adopt the state of any other live holder: while
  // this node was down the remaining holders kept accepting writes, so a
  // reachable peer's copy is authoritative (at worst equal). The dedup
  // table travels with the blob, so retried inserts stay exactly-once
  // across the rejoin.
  for (std::size_t r : held_ranges())
    (void)resync_range(r, config_.resync_connect_timeout_ms,
                       /*wholesale=*/true);
}

bool ManagerNode::resync_range(std::size_t range,
                               std::uint32_t connect_timeout_ms,
                               bool wholesale) {
  MgrStatePullRequest req;
  req.range = static_cast<std::uint32_t>(range);
  std::string body;
  req.encode(body);
  for (std::size_t h : holders_of(range)) {
    if (h == config_.index) continue;
    // One-shot connection, NOT the shared peer client: a bulk state pull
    // must not hold Peer::mu against the replicate path, and a
    // hint-triggered pull over the shared client would land on the very
    // connection whose serve thread at the peer is blocked awaiting our
    // hint response — a request cycle over one socket that only a
    // timeout can break.
    rpc::RpcClientConfig cc;
    cc.host = config_.ring[h].host;
    cc.port = config_.ring[h].port;
    cc.request_timeout_ms = config_.request_timeout_ms;
    if (connect_timeout_ms != 0) cc.connect_timeout_ms = connect_timeout_ms;
    cc.max_frame_bytes = kClusterMaxFrameBytes;
    rpc::RpcClient client(cc);
    if (!client.connect()) continue;
    std::string resp_body;
    const rpc::CallResult res =
        client.call_raw(rpc::MsgType::kMgrStatePull, body, &resp_body);
    if (!res.ok || res.status != rpc::Status::kOk) continue;
    rpc::Reader reader(resp_body);
    auto resp = MgrStatePullResponse::decode(reader);
    if (!resp) continue;
    const auto ckpt = service::parse_checkpoint(resp->blob);
    if (!ckpt) continue;
    const util::MutexLock lock(state_mu_);
    RangeStore* store = store_of(range);
    if (!wholesale) {
      // Catch-up adopt (kMgrResyncHint): take the peer copy only when
      // its watermarks cover every locally-acked rating — this node may
      // have served failover inserts the peer never received, and
      // wholesale adoption would drop them. Checked under state_mu_, so
      // a rating applied after the pull forces a retry instead of being
      // silently overwritten.
      bool peer_covers_local = true;
      for (const auto& [source, seq] : store->seqs) {
        const auto it =
            std::lower_bound(resp->seqs.begin(), resp->seqs.end(),
                             std::make_pair(source, std::uint64_t{0}));
        if (it == resp->seqs.end() || it->first != source ||
            it->second < seq) {
          peer_covers_local = false;
          break;
        }
      }
      if (!peer_covers_local) {
        // The stale side may be the peer: if the local watermarks cover
        // the peer's, this copy is already current.
        bool local_covers_peer = true;
        for (const auto& [source, seq] : resp->seqs) {
          const auto it = store->seqs.find(source);
          if (it == store->seqs.end() || it->second < seq) {
            local_covers_peer = false;
            break;
          }
        }
        if (local_covers_peer) return true;
        continue;  // diverged both ways; try another holder
      }
    }
    try {
      store->shard.reload_from(*ckpt);
    } catch (const std::runtime_error&) {
      continue;  // names ids outside the key space; try another holder
    }
    store->seqs.clear();
    for (const auto& [source, seq] : resp->seqs) store->seqs[source] = seq;
    // Re-anchor durability on the adopted state: the local WAL's records
    // belong to the discarded pre-adopt history, so cut a fresh
    // checkpoint and rotate past them.
    if (!config_.data_dir.empty() &&
        store->shard.checkpoint_and_rotate(range_ckpt_path(range)))
      checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ManagerNode::broadcast_rejoin() {
  MgrRejoinRequest req;
  req.index = static_cast<std::uint32_t>(config_.index);
  std::string body;
  req.encode(body);
  for (std::size_t i = 0; i < config_.ring.size(); ++i) {
    if (i == config_.index) continue;
    (void)peer_call(i, rpc::MsgType::kMgrRejoin, body, nullptr,
                    config_.resync_connect_timeout_ms);
  }
}

void ManagerNode::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!config_.data_dir.empty()) {
    const util::MutexLock lock(state_mu_);
    for (const auto& store : stores_)
      if (store->shard.checkpoint_and_rotate(range_ckpt_path(store->range)))
        checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  }
  running_.store(false, std::memory_order_release);
}

// --- Serving ----------------------------------------------------------------

void ManagerNode::accept_loop() {
  // Each connection gets a thread; finished ones are reaped every poll
  // tick so a long-lived manager serving many short-lived connections
  // does not accumulate unjoined threads without bound.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Conn> conns;
  const auto reap = [&conns](bool all) {
    for (auto it = conns.begin(); it != conns.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    reap(/*all=*/false);
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto done = std::make_shared<std::atomic<bool>>(false);
    conns.push_back(Conn{std::thread([this, fd, done] {
                           serve_connection(fd);
                           done->store(true, std::memory_order_release);
                         }),
                         done});
  }
  reap(/*all=*/true);
}

void ManagerNode::serve_connection(int fd) {
  std::string buf;
  char chunk[16 * 1024];
  // Simulated-latency injection (off by default): each request pays one
  // modeled hop before being served, reproducing the paper's message-delay
  // regime on a loopback cluster. Per-connection RNG keeps concurrent
  // connections from sharing state.
  util::Rng latency_rng(config_.latency.seed ^
                        static_cast<std::uint64_t>(fd));
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    bool corrupt = false;
    for (;;) {
      std::string_view payload;
      std::size_t consumed = 0;
      const rpc::FrameResult fr = rpc::try_decode_frame(
          buf, kClusterMaxFrameBytes, &payload, &consumed);
      if (fr == rpc::FrameResult::kNeedMore) break;
      if (fr == rpc::FrameResult::kError) {
        corrupt = true;
        break;
      }
      if (config_.latency.enabled) {
        const double ms =
            config_.latency.per_hop_ms +
            latency_rng.uniform(0.0, config_.latency.jitter_ms);
        if (ms > 0.0)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
      }
      std::size_t rejoined_peer = kNoPeer;
      const std::string response = handle_request(payload, &rejoined_peer);
      buf.erase(0, consumed);
      if (!response.empty() && !send_all_fd(fd, response)) {
        corrupt = true;
        break;
      }
      // A rejoined peer has finished its startup resync, so any debt
      // recorded toward it is already covered — repay it now rather than
      // waiting for the next insert to touch a shared range. Must happen
      // after the response: the rejoiner's broadcast_rejoin holds its
      // own peer entry for this node until the reply lands.
      if (rejoined_peer != kNoPeer) repair_lagging(rejoined_peer);
    }
    if (corrupt) break;
  }
  ::close(fd);
}

std::string ManagerNode::handle_request(std::string_view payload,
                                        std::size_t* rejoined_peer) {
  rpc::Reader r(payload);
  rpc::RequestHeader req{};
  if (!rpc::decode_request_header(r, req)) return {};  // drop, no reply

  rpc::ResponseHeader resp_h;
  resp_h.type = req.type;
  resp_h.request_id = req.request_id;
  std::string body;

  if (req.version != rpc::kProtocolVersion) {
    resp_h.status = rpc::Status::kUnsupportedVersion;
  } else {
    switch (static_cast<rpc::MsgType>(req.type)) {
      case rpc::MsgType::kPing:
        resp_h.status = rpc::Status::kOk;
        break;
      case rpc::MsgType::kMgrInsert:
        resp_h.status = handle_insert(r, body);
        break;
      case rpc::MsgType::kMgrReplicate:
        resp_h.status = handle_replicate(r, body);
        break;
      case rpc::MsgType::kQueryReputation:
        resp_h.status = handle_query(r, body);
        break;
      case rpc::MsgType::kMgrStatePull:
        resp_h.status = handle_state_pull(r, body);
        break;
      case rpc::MsgType::kMgrColluderSet:
        resp_h.status = handle_colluder_set(r, body);
        break;
      case rpc::MsgType::kMgrRingInfo:
        resp_h.status = handle_ring_info(body);
        break;
      case rpc::MsgType::kMgrRejoin:
        resp_h.status = handle_rejoin(r, body, rejoined_peer);
        break;
      case rpc::MsgType::kMgrResyncHint:
        resp_h.status = handle_resync_hint(r, body);
        break;
      case rpc::MsgType::kGetMetrics:
        resp_h.status = handle_get_metrics(body);
        break;
      default:
        resp_h.status = rpc::Status::kUnsupportedType;
        break;
    }
  }
  if (resp_h.status != rpc::Status::kOk) body.clear();
  std::string out;
  rpc::encode_response_header(out, resp_h);
  out.append(body);
  return rpc::encode_frame(out);
}

rpc::Status ManagerNode::handle_insert(rpc::Reader& r, std::string& body) {
  const auto req = MgrInsertRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  const rating::Rating& rt = req->rating;
  if (rt.rater >= config_.service.num_nodes ||
      rt.ratee >= config_.service.num_nodes || rt.rater == rt.ratee)
    return rpc::Status::kInvalidArgument;
  const std::size_t range = map_.owner(rt.ratee);

  if (!holds(range)) {
    // Entry-node relay: route to the holders, primary first. A request
    // that was already forwarded once must have reached a holder —
    // answering kInternal instead of relaying again makes routing bugs
    // loud rather than circular.
    if (req->forwarded) return rpc::Status::kInternal;
    forwards_.fetch_add(1, std::memory_order_relaxed);
    MgrInsertRequest fwd = *req;
    fwd.forwarded = 1;
    std::string fwd_body;
    fwd.encode(fwd_body);
    for (std::size_t h : holders_of(range)) {
      std::string resp_body;
      const rpc::CallResult res =
          peer_call(h, rpc::MsgType::kMgrInsert, fwd_body, &resp_body);
      if (!res.ok) continue;
      if (res.status != rpc::Status::kOk) return res.status;
      body = resp_body;
      return rpc::Status::kOk;
    }
    return rpc::Status::kInternal;
  }

  bool duplicate = false;
  {
    const util::MutexLock lock(state_mu_);
    RangeStore* store = store_of(range);
    const auto it = store->seqs.find(req->source);
    if (it != store->seqs.end() && req->seq <= it->second) {
      duplicate = true;
    } else {
      store->seqs[req->source] = req->seq;
      store->shard.log_record(service::WalRecord::make_rating(rt));
      store->shard.apply_rating(rt);
    }
  }
  // A holder that is not the range's primary only sees inserts when the
  // primary is unreachable — this is the failover serving the paper's
  // replica redundancy exists for.
  if (range != config_.index)
    failovers_.fetch_add(1, std::memory_order_relaxed);
  if (!duplicate) {
    MgrReplicateRequest rep;
    rep.range = static_cast<std::uint32_t>(range);
    rep.source = req->source;
    rep.seq = req->seq;
    rep.rating = rt;
    replicate(range, rep);
  }
  MgrInsertResponse resp;
  resp.duplicate = duplicate ? 1 : 0;
  resp.encode(body);
  return rpc::Status::kOk;
}

void ManagerNode::replicate(std::size_t range,
                            const MgrReplicateRequest& req) {
  std::string body;
  req.encode(body);
  for (std::size_t h : holders_of(range)) {
    if (h == config_.index) continue;
    rpc::CallResult res =
        peer_call(h, rpc::MsgType::kMgrReplicate, body, nullptr);
    // One retry: a transient timeout or dropped connection must not
    // strand a live replica with a hole in its copy.
    if (!res.ok || res.status != rpc::Status::kOk)
      res = peer_call(h, rpc::MsgType::kMgrReplicate, body, nullptr);
    if (!res.ok || res.status != rpc::Status::kOk) {
      // Record the debt: this holder is missing a copy it must receive
      // before it can serve the range alone. Repaid by repair_lagging
      // the next time the peer answers, or by its own restart resync.
      replica_lag_.fetch_add(1, std::memory_order_relaxed);
      const util::MutexLock lock(peers_[h]->mu);
      ++peers_[h]->lagging[range];
      continue;
    }
    repair_lagging(h);
  }
}

void ManagerNode::repair_lagging(std::size_t idx) {
  Peer& peer = *peers_[idx];
  std::vector<std::pair<std::size_t, std::uint64_t>> debts;
  {
    const util::MutexLock lock(peer.mu);
    if (peer.lagging.empty()) return;
    debts.assign(peer.lagging.begin(), peer.lagging.end());
  }
  for (const auto& [range, missed] : debts) {
    MgrResyncHintRequest hint;
    hint.range = static_cast<std::uint32_t>(range);
    std::string body;
    hint.encode(body);
    rpc::CallResult res =
        peer_call(idx, rpc::MsgType::kMgrResyncHint, body, nullptr);
    // One retry: the cached connection to a peer that died and came back
    // is a stale socket, and the first call on it fails while tearing it
    // down — exactly the situation a rejoin-triggered repair runs in.
    if (!res.ok || res.status != rpc::Status::kOk)
      res = peer_call(idx, rpc::MsgType::kMgrResyncHint, body, nullptr);
    if (!res.ok || res.status != rpc::Status::kOk) continue;
    // The peer re-pulled the range and is caught up; repay at most the
    // snapshot's debt — copies that failed since the snapshot stay owed.
    // The gauge moves by exactly what this call removes from the map: a
    // concurrent repair (rejoin-triggered and insert-triggered can race)
    // that already claimed the entry repays nothing here, so the debt is
    // never subtracted twice.
    std::uint64_t repaid = 0;
    {
      const util::MutexLock lock(peer.mu);
      const auto it = peer.lagging.find(range);
      if (it != peer.lagging.end()) {
        repaid = std::min(missed, it->second);
        if (it->second <= missed)
          peer.lagging.erase(it);
        else
          it->second -= missed;
      }
    }
    if (repaid != 0)
      replica_lag_.fetch_sub(repaid, std::memory_order_relaxed);
  }
}

rpc::Status ManagerNode::handle_replicate(rpc::Reader& r, std::string&) {
  const auto req = MgrReplicateRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  if (!holds(req->range)) return rpc::Status::kInvalidArgument;
  const rating::Rating& rt = req->rating;
  if (rt.rater >= config_.service.num_nodes ||
      rt.ratee >= config_.service.num_nodes || rt.rater == rt.ratee)
    return rpc::Status::kInvalidArgument;
  const util::MutexLock lock(state_mu_);
  RangeStore* store = store_of(req->range);
  const auto it = store->seqs.find(req->source);
  if (it == store->seqs.end() || req->seq > it->second) {
    store->seqs[req->source] = req->seq;
    store->shard.log_record(service::WalRecord::make_rating(rt));
    store->shard.apply_rating(rt);
  }
  return rpc::Status::kOk;  // replicas never re-replicate
}

rpc::Status ManagerNode::handle_query(rpc::Reader& r, std::string& body) {
  const auto req = rpc::QueryReputationRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  if (req->node >= config_.service.num_nodes)
    return rpc::Status::kInvalidArgument;
  const std::size_t range = map_.owner(req->node);

  if (holds(range)) {
    // Reputations, verdicts and the epoch count change only when an epoch
    // commits, so this is the range's epoch-published state.
    rpc::QueryReputationResponse resp;
    {
      const util::MutexLock lock(state_mu_);
      service::ServiceShard& shard = store_of(range)->shard;
      resp.reputation = shard.engine().reputation(req->node);
      resp.suspected = shard.manager().detected().contains(req->node) ? 1 : 0;
      resp.epoch = shard.epochs_completed();
    }
    resp.shard = static_cast<std::uint32_t>(range);
    resp.encode(body);
    return rpc::Status::kOk;
  }

  forwards_.fetch_add(1, std::memory_order_relaxed);
  std::string fwd_body;
  req->encode(fwd_body);
  for (std::size_t h : holders_of(range)) {
    std::string resp_body;
    const rpc::CallResult res =
        peer_call(h, rpc::MsgType::kQueryReputation, fwd_body, &resp_body);
    if (!res.ok) continue;
    if (res.status != rpc::Status::kOk) return res.status;
    body = resp_body;
    return rpc::Status::kOk;
  }
  return rpc::Status::kInternal;
}

rpc::Status ManagerNode::handle_state_pull(rpc::Reader& r,
                                           std::string& body) {
  const auto req = MgrStatePullRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  if (!holds(req->range)) return rpc::Status::kInvalidArgument;
  MgrStatePullResponse resp;
  resp.range = req->range;
  {
    const util::MutexLock lock(state_mu_);
    RangeStore* store = store_of(req->range);
    const auto ckpt = store->shard.make_checkpoint();
    if (!ckpt) return rpc::Status::kInternal;
    resp.blob = service::encode_checkpoint(*ckpt);
    resp.seqs.assign(store->seqs.begin(), store->seqs.end());
  }
  std::sort(resp.seqs.begin(), resp.seqs.end());
  if (resp.blob.size() > kMaxStateBlobBytes) return rpc::Status::kInternal;
  resp.encode(body);
  return rpc::Status::kOk;
}

rpc::Status ManagerNode::handle_colluder_set(rpc::Reader& r,
                                             std::string& body) {
  const auto req = MgrColluderSetRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  // Wire-supplied verdicts: every flagged id is an index into the
  // ownership map, so an id outside the node space is hostile.
  for (rating::NodeId id : req->flagged)
    if (id >= config_.service.num_nodes)
      return rpc::Status::kInvalidArgument;
  std::uint64_t completed = 0;
  {
    const util::MutexLock lock(state_mu_);
    // Validate the epoch number against the least-caught-up range before
    // touching anything: a hostile epoch_seq (e.g. 2^64-1) committed
    // verbatim would make every later legitimate epoch look like an
    // idempotent retry and wedge cluster-wide commits for good. A small
    // jump is legitimate — a holder that missed commits while
    // partitioned catches up on the next push.
    for (const auto& store : stores_) {
      const std::uint64_t have = store->shard.epochs_completed();
      if (req->epoch_seq > have && req->epoch_seq - have > kMaxEpochSkip)
        return rpc::Status::kInvalidArgument;
    }
    for (const auto& store : stores_) {
      // Idempotent: a coordinator retry of an epoch the range already
      // committed is acknowledged without replaying.
      if (req->epoch_seq <= store->shard.epochs_completed()) {
        completed = std::max(completed, store->shard.epochs_completed());
        continue;
      }
      // Replay the single-process global epoch on this range: the
      // pre-detection engine update, then the same commit the service
      // runs on each shard.
      store->shard.manager().update_reputations();
      store->shard.commit_epoch(req->epoch_seq, req->flagged);
      // The epoch commit is the durable point: checkpoint + rotate keeps
      // each range's WAL a pure post-epoch rating stream.
      if (!config_.data_dir.empty() &&
          store->shard.checkpoint_and_rotate(range_ckpt_path(store->range)))
        checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
      completed = std::max(completed, req->epoch_seq);
    }
  }
  MgrColluderSetResponse resp;
  resp.epochs_completed = completed;
  resp.encode(body);
  return rpc::Status::kOk;
}

rpc::Status ManagerNode::handle_ring_info(std::string& body) {
  MgrRingInfoResponse resp;
  resp.replication = config_.replication;
  resp.num_nodes = config_.service.num_nodes;
  resp.members.reserve(config_.ring.size());
  for (std::size_t i = 0; i < config_.ring.size(); ++i) {
    MgrRingInfoResponse::Member m;
    m.host = config_.ring[i].host;
    m.port = i == config_.index ? bound_port_ : config_.ring[i].port;
    m.alive = i == config_.index
                  ? 1
                  : (peers_[i]->alive.load(std::memory_order_relaxed) ? 1
                                                                      : 0);
    resp.members.push_back(std::move(m));
  }
  resp.encode(body);
  return rpc::Status::kOk;
}

rpc::Status ManagerNode::handle_rejoin(rpc::Reader& r, std::string&,
                                       std::size_t* rejoined_peer) {
  const auto req = MgrRejoinRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  if (req->index >= config_.ring.size() || req->index == config_.index)
    return rpc::Status::kInvalidArgument;
  peers_[req->index]->alive.store(true, std::memory_order_relaxed);
  if (rejoined_peer != nullptr) *rejoined_peer = req->index;
  return rpc::Status::kOk;
}

rpc::Status ManagerNode::handle_resync_hint(rpc::Reader& r, std::string&) {
  const auto req = MgrResyncHintRequest::decode(r);
  if (!req || !r.done()) return rpc::Status::kInvalidArgument;
  if (!holds(req->range)) return rpc::Status::kInvalidArgument;
  return resync_range(req->range, 0, /*wholesale=*/false)
             ? rpc::Status::kOk
             : rpc::Status::kInternal;
}

rpc::Status ManagerNode::handle_get_metrics(std::string& body) {
  rpc::GetMetricsResponse resp;
  resp.metrics = metrics_snapshot();
  resp.encode(body);
  return rpc::Status::kOk;
}

service::ServiceMetrics ManagerNode::metrics_snapshot() {
  service::ServiceMetrics m;
  {
    const util::MutexLock lock(state_mu_);
    for (const auto& store : stores_) {
      m.ratings_applied += store->shard.applied_total();
      m.epochs_completed =
          std::max(m.epochs_completed, store->shard.epochs_completed());
      m.wal_records += store->shard.wal_records();
      m.wal_bytes += store->shard.wal_bytes();
      m.matrix_bytes += store->shard.matrix_resident_bytes();
    }
  }
  // The held ranges' shared slot tables, charged once.
  m.matrix_bytes += map_.row_index()->slot_table_bytes();
  m.ratings_accepted = m.ratings_applied;
  m.current_shard_count = config_.ring.size();
  m.checkpoints_written =
      checkpoints_written_.load(std::memory_order_relaxed);
  m.cluster_owned_keys = owned_keys_;
  m.cluster_replica_lag = replica_lag_.load(std::memory_order_relaxed);
  m.cluster_forwards = forwards_.load(std::memory_order_relaxed);
  m.cluster_failovers = failovers_.load(std::memory_order_relaxed);
  return m;
}

}  // namespace p2prep::cluster
