// Child-process lifecycle for the cluster replay: `p2prep_cli manager`
// processes on kernel-reserved loopback ports, a wall-clock watchdog, and
// signal handling that never leaves a manager behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/manager_node.h"

namespace perfbench {

/// Installs SIGINT/SIGTERM handlers that kill every live child and exit,
/// and arms a watchdog that does the same (naming the timeout) once
/// `limit_s` seconds have passed.
void install_guards(double limit_s);

/// Asks the kernel for a free loopback TCP port.
std::uint16_t reserve_port();

/// A ring of manager processes, each the primary of one key range.
/// Construction spawns them and waits until every port accepts; the
/// destructor stops them (SIGTERM, then SIGKILL) and reaps them.
class ManagerProcesses {
 public:
  ManagerProcesses(const std::string& cli, const std::string& dir,
                   std::size_t count, std::uint32_t replication,
                   std::size_t nodes);
  ~ManagerProcesses();

  ManagerProcesses(const ManagerProcesses&) = delete;
  ManagerProcesses& operator=(const ManagerProcesses&) = delete;

  [[nodiscard]] const std::vector<p2prep::cluster::ManagerEndpoint>& ring()
      const noexcept {
    return ring_;
  }
  /// Per-manager data directories (WAL + checkpoint files).
  [[nodiscard]] const std::vector<std::string>& data_dirs() const noexcept {
    return data_dirs_;
  }

 private:
  void stop_all();

  std::vector<p2prep::cluster::ManagerEndpoint> ring_;
  std::vector<std::string> data_dirs_;
  std::vector<pid_t> pids_;
};

}  // namespace perfbench
