#include "rpc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace p2prep::rpc {

namespace {

/// Poll tick: deadlines (idle / partial-frame) are checked at this
/// granularity, so effective timeouts are accurate to within one tick.
constexpr int kPollTickMs = 20;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[nodiscard]] std::uint32_t ms_since(
    std::chrono::steady_clock::time_point since,
    std::chrono::steady_clock::time_point now) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
          .count();
  return ms < 0 ? 0 : static_cast<std::uint32_t>(ms);
}

}  // namespace

RpcServer::RpcServer(service::ReputationService& service,
                     RpcServerConfig config)
    : service_(&service), config_(std::move(config)) {
  if (!config_.valid())
    throw std::runtime_error("rpc server: invalid RpcServerConfig");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("rpc server: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    throw std::runtime_error("rpc server: bad bind address '" +
                             config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("rpc server: bind/listen on " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port) + " failed: " + err);
  }
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  workers_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    int pipefd[2];
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
      ::close(listen_fd_);
      throw std::runtime_error("rpc server: pipe2() failed");
    }
    w->wake_rd = pipefd[0];
    w->wake_wr = pipefd[1];
    workers_.push_back(std::move(w));
  }
  for (std::size_t i = 0; i < workers_.size(); ++i)
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
}

RpcServer::~RpcServer() { shutdown(); }

void RpcServer::shutdown(std::uint32_t grace_ms) {
  {
    const util::MutexLock lock(shutdown_mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  draining_.store(true, std::memory_order_release);
  for (const auto& w : workers_) {
    const char b = 1;
    (void)!::write(w->wake_wr, &b, 1);
  }

  // Grace window: workers drain and exit on their own once their
  // connections are flushed and closed; after the deadline, force.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    if (active_.load(std::memory_order_acquire) == 0) break;
    if (Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_now_.store(true, std::memory_order_release);
  for (const auto& w : workers_) {
    const char b = 1;
    (void)!::write(w->wake_wr, &b, 1);
  }
  for (const auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  for (const auto& w : workers_) {
    ::close(w->wake_rd);
    ::close(w->wake_wr);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// --- Event loop ------------------------------------------------------------

void RpcServer::worker_loop(std::size_t index) {
  Worker& w = *workers_[index];
  std::vector<pollfd> pfds;

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (stop_now_.load(std::memory_order_acquire)) break;
    if (draining && w.conns.empty()) break;

    pfds.clear();
    pfds.push_back({w.wake_rd, POLLIN, 0});
    if (!draining) pfds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t conn_base = pfds.size();
    for (const Connection& c : w.conns) {
      // Backlog gate: a peer that does not read its responses is not read
      // from either, so its unsent responses stay bounded.
      short events = backlogged(c) ? 0 : POLLIN;
      if (!c.wbuf.empty()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
    }

    const int ready = ::poll(pfds.data(), pfds.size(), kPollTickMs);
    if (ready < 0 && errno != EINTR) break;

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(w.wake_rd, buf, sizeof buf) > 0) {
      }
    }
    if (!draining && (pfds[1].revents & (POLLIN | POLLERR)) != 0)
      accept_ready(w);

    const auto now = Clock::now();
    for (std::size_t i = 0; i < w.conns.size();) {
      Connection& c = w.conns[i];
      // pfds entry for conns[i] — stable because close removes via erase
      // only after this loop's body finishes with the connection.
      const short revents =
          conn_base + i < pfds.size() ? pfds[conn_base + i].revents : 0;
      bool alive = true;

      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (revents & POLLIN) == 0) {
        alive = false;
      }
      if (alive && (revents & POLLIN) != 0) alive = read_ready(c);
      if (alive && !c.wbuf.empty()) alive = flush_writes(c);
      // A drained backlog resumes the frames the gate left in rbuf.
      if (alive && !c.rbuf.empty() && !backlogged(c))
        alive = process_frames(c);
      if (c.failed) alive = false;

      if (alive) {
        // Deadlines: idle (no traffic at all) and stalled partial frame.
        if (ms_since(c.last_activity, now) >= config_.idle_timeout_ms) {
          idle_closed_.fetch_add(1, std::memory_order_relaxed);
          alive = false;
        } else if (c.partial_since &&
                   ms_since(*c.partial_since, now) >=
                       config_.request_timeout_ms) {
          request_timeouts_.fetch_add(1, std::memory_order_relaxed);
          alive = false;
        }
      }
      // Draining: once the response buffer is flushed, hang up cleanly.
      if (alive && draining_.load(std::memory_order_acquire) &&
          c.wbuf.empty())
        alive = false;

      if (alive) {
        ++i;
      } else {
        close_connection(c);
        w.conns.erase(w.conns.begin() + static_cast<std::ptrdiff_t>(i));
        // pfds is now stale past this index; re-enter poll rather than
        // risk matching events to the wrong connection.
        break;
      }
    }
  }

  for (Connection& c : w.conns) {
    (void)flush_writes(c);  // best effort
    close_connection(c);
  }
  w.conns.clear();
}

void RpcServer::accept_ready(Worker& w) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient
    if (draining_.load(std::memory_order_acquire) ||
        active_.load(std::memory_order_acquire) >= config_.max_connections) {
      // Doorman refusal: one kGoAway frame with the backoff hint, then
      // close — the client backs off instead of queueing invisibly. Counted
      // first, so a peer that sees the close also sees the count.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      const std::string frame = goaway_frame(
          draining_.load(std::memory_order_acquire) ? Status::kShuttingDown
                                                    : Status::kRetryLater);
      const ssize_t n = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      if (n > 0)
        bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    Connection c;
    c.fd = fd;
    c.last_activity = Clock::now();
    w.conns.push_back(std::move(c));
  }
}

bool RpcServer::read_ready(Connection& c) {
  char buf[16384];
  bool got_bytes = false;
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      got_bytes = true;
      // A short read drained the socket; poll() is level-triggered, so
      // bytes that arrive meanwhile wake it again. Only a full buffer
      // reads on, which spares each request a recv() that fails EAGAIN,
      // and only until rbuf holds a maximal frame, which bounds it.
      if (static_cast<std::size_t>(n) < sizeof buf ||
          c.rbuf.size() > config_.max_frame_bytes)
        break;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  if (got_bytes) c.last_activity = Clock::now();
  return process_frames(c);
}

bool RpcServer::process_frames(Connection& c) {
  std::size_t off = 0;
  const std::string_view whole(c.rbuf);
  while (!backlogged(c)) {
    std::string_view payload;
    std::size_t consumed = 0;
    const FrameResult res =
        try_decode_frame(whole.substr(off), config_.max_frame_bytes,
                         &payload, &consumed);
    if (res == FrameResult::kNeedMore) break;
    if (res == FrameResult::kError) {
      // Length or CRC corruption: the stream's frame boundaries can no
      // longer be trusted, so the connection is dropped.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    handle_payload(c, payload);
    off += consumed;
    if (c.failed) return false;
  }
  c.rbuf.erase(0, off);
  if (c.rbuf.empty()) {
    c.partial_since.reset();
  } else if (!c.partial_since || off > 0) {
    // The request-timeout clock runs from the last complete frame, so a
    // pipelining peer held back by the backlog gate is not timed out
    // while it reads its responses.
    c.partial_since = Clock::now();
  }
  return true;
}

bool RpcServer::flush_writes(Connection& c) {
  while (!c.wbuf.empty()) {
    const ssize_t n =
        ::send(c.fd, c.wbuf.data(), c.wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      c.wbuf.erase(0, static_cast<std::size_t>(n));
      c.last_activity = Clock::now();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  return true;
}

void RpcServer::close_connection(Connection& c) {
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
}

// --- Request handling ------------------------------------------------------

void RpcServer::handle_payload(Connection& c, std::string_view payload) {
  Reader r(payload);
  RequestHeader h;
  if (!decode_request_header(r, h)) {
    // A CRC-clean frame too short for the envelope is corruption, not a
    // malformed request — drop the connection.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    c.failed = true;
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  ResponseHeader resp;
  resp.type = static_cast<std::uint8_t>(h.type & ~kResponseBit);
  resp.request_id = h.request_id;
  std::string body;

  if (h.version != kProtocolVersion) {
    resp.status = Status::kUnsupportedVersion;
  } else if ((h.type & kResponseBit) != 0) {
    resp.status = Status::kUnsupportedType;
  } else {
    switch (static_cast<MsgType>(h.type)) {
      case MsgType::kPing:
        break;
      case MsgType::kSubmitRating: {
        const auto req = SubmitRatingRequest::decode(r);
        SubmitBatchResponse tally;
        resp.status =
            req ? submit({&req->rating, 1}, tally) : Status::kInvalidArgument;
        if (tally.rejected != 0) resp.status = Status::kInvalidArgument;
        break;
      }
      case MsgType::kSubmitBatch: {
        const auto req = SubmitBatchRequest::decode(r);
        SubmitBatchResponse tally;
        resp.status =
            req ? submit(req->ratings, tally) : Status::kInvalidArgument;
        if (req) tally.encode(body);
        break;
      }
      case MsgType::kQueryReputation:
        handle_query_reputation(r, resp, body);
        break;
      case MsgType::kQueryColluders:
        handle_query_colluders(resp, body);
        break;
      case MsgType::kGetMetrics:
        handle_get_metrics(body);
        break;
      case MsgType::kResize:
        handle_resize(r, resp, body);
        break;
      case MsgType::kGoAway:
      default:
        resp.status = Status::kUnsupportedType;
        break;
    }
  }

  if (resp.status == Status::kRetryLater) {
    resp.backoff_hint_ms = config_.shed_backoff_ms;
    shed_.fetch_add(1, std::memory_order_relaxed);
  }
  std::string out;
  encode_response_header(out, resp);
  out += body;
  c.wbuf += encode_frame(out);
  responses_.fetch_add(1, std::memory_order_relaxed);
}

Status RpcServer::submit(std::span<const rating::Rating> ratings,
                         SubmitBatchResponse& tally) {
  if (draining_.load(std::memory_order_acquire)) return Status::kShuttingDown;
  // Inflight gate: one depth read per request admits at most the rest of
  // the budget, which bounds the admitted-but-unhandled backlog across
  // all shards.
  const std::uint64_t depth = service_->queue_depth();
  if (depth >= config_.max_inflight) return Status::kRetryLater;
  const std::uint64_t budget = config_.max_inflight - depth;
  const auto admitted =
      budget < ratings.size() ? ratings.first(budget) : ratings;
  const service::IngestResult res =
      service_->ingest_batch(admitted, service::Admission::kNoWait);
  tally.accepted = static_cast<std::uint32_t>(res.accepted);
  tally.rejected = static_cast<std::uint32_t>(res.rejected);
  if (res.stop == service::IngestResult::Stop::kStopped)
    return Status::kShuttingDown;
  // A full queue or the budget cut the submit short: the client resumes
  // at accepted + rejected.
  const bool cut = res.stop == service::IngestResult::Stop::kFull ||
                   admitted.size() < ratings.size();
  return cut ? Status::kRetryLater : Status::kOk;
}

void RpcServer::handle_query_reputation(Reader& r, ResponseHeader& resp,
                                        std::string& body) {
  const auto req = QueryReputationRequest::decode(r);
  if (!req || req->node >= service_->config().num_nodes) {
    resp.status = Status::kInvalidArgument;
    QueryReputationResponse{}.encode(body);
    return;
  }
  const service::ServiceSnapshot snap = service_->snapshot();
  QueryReputationResponse out;
  out.reputation = snap.reputation(req->node);
  out.suspected = snap.suspected(req->node) ? 1 : 0;
  // Resolve the owner through the snapshot's own map: shard_of() reads the
  // live map, which a concurrent resize() may already have swapped.
  out.shard = static_cast<std::uint32_t>(snap.owner(req->node));
  out.epoch = snap.epoch(req->node);
  out.encode(body);
}

void RpcServer::handle_resize(Reader& r, ResponseHeader& resp,
                              std::string& body) {
  const auto req = ResizeRequest::decode(r);
  if (!req) {
    resp.status = Status::kInvalidArgument;
    ResizeResponse{}.encode(body);
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    resp.status = Status::kShuttingDown;
    ResizeResponse{}.encode(body);
    return;
  }
  ResizeResponse out;
  try {
    const service::ResizeStats stats = service_->resize(req->new_num_shards);
    out.num_shards = static_cast<std::uint32_t>(stats.num_shards);
    out.keys_moved = stats.keys_moved;
    out.duration_ms = static_cast<std::uint64_t>(stats.duration_ms);
  } catch (const std::invalid_argument&) {
    resp.status = Status::kInvalidArgument;
    out.num_shards = static_cast<std::uint32_t>(service_->num_shards());
  } catch (const std::runtime_error&) {
    resp.status = Status::kInternal;
    out.num_shards = static_cast<std::uint32_t>(service_->num_shards());
  }
  out.encode(body);
}

void RpcServer::handle_query_colluders(ResponseHeader&, std::string& body) {
  const service::ServiceSnapshot snap = service_->snapshot();
  QueryColludersResponse out;
  const std::size_t n = service_->config().num_nodes;
  for (rating::NodeId i = 0; i < n; ++i) {
    if (!snap.suspected(i)) continue;
    ++out.total_suspected;
    if (out.colluders.size() < config_.max_colluders_per_response)
      out.colluders.push_back(i);
  }
  out.truncated = out.colluders.size() < out.total_suspected ? 1 : 0;
  out.encode(body);
}

void RpcServer::handle_get_metrics(std::string& body) {
  GetMetricsResponse out;
  out.metrics = service_->metrics();
  fill_metrics(out.metrics);
  out.encode(body);
}

std::string RpcServer::goaway_frame(Status status) const {
  ResponseHeader h;
  h.type = static_cast<std::uint8_t>(MsgType::kGoAway);
  h.request_id = 0;
  h.status = status;
  h.backoff_hint_ms =
      status == Status::kRetryLater ? config_.shed_backoff_ms : 0;
  std::string payload;
  encode_response_header(payload, h);
  return encode_frame(payload);
}

// --- Stats -----------------------------------------------------------------

RpcServerStats RpcServer::stats() const {
  RpcServerStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_rejected = rejected_.load(std::memory_order_relaxed);
  s.active_connections = active_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.request_timeouts = request_timeouts_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::fill_metrics(service::ServiceMetrics& m) const {
  const RpcServerStats s = stats();
  m.rpc_accepted = s.connections_accepted;
  m.rpc_rejected = s.connections_rejected;
  m.rpc_requests = s.requests;
  m.rpc_shed = s.shed;
  m.rpc_bytes_in = s.bytes_in;
  m.rpc_bytes_out = s.bytes_out;
  m.rpc_active_connections = s.active_connections;
}

}  // namespace p2prep::rpc
