// Loopback port reservation for tests that start managers on fixed ports.
//
// A ReservedPort binds 127.0.0.1:0 with SO_REUSEADDR and keeps that socket
// bound, never listening, for its whole lifetime. While it is held the
// kernel hands the port to no other bind(0) or outgoing connect(), so
// concurrent tests cannot take it; a manager that sets SO_REUSEADDR (as
// ManagerNode and RpcServer do) can still bind, listen and accept on it.
// Keep the reservation alive until the manager on that port is stopped.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <utility>

namespace p2prep::testutil {

class ReservedPort {
 public:
  ReservedPort() : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (fd_ < 0) throw std::runtime_error("reserve port: socket failed");
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd_);
      throw std::runtime_error("reserve port: bind failed");
    }
    port_ = ntohs(addr.sin_port);
  }
  ~ReservedPort() {
    if (fd_ >= 0) ::close(fd_);
  }

  ReservedPort(ReservedPort&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}
  ReservedPort& operator=(ReservedPort&&) = delete;
  ReservedPort(const ReservedPort&) = delete;
  ReservedPort& operator=(const ReservedPort&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

}  // namespace p2prep::testutil
