#include "procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

constexpr int kMaxChildren = 32;
std::atomic<pid_t> g_children[kMaxChildren];

void track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

// Async-signal-safe: only atomics, kill() and write().
void kill_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
}

void write_stderr(const char* msg) {
  const ssize_t n = write(STDERR_FILENO, msg, std::strlen(msg));
  (void)n;
}

void on_signal(int sig) {
  kill_children();
  write_stderr("perfbench: interrupted, managers killed\n");
  _exit(128 + sig);
}

void on_alarm(int) {
  kill_children();
  write_stderr("perfbench: wall-clock timeout, managers killed\n");
  _exit(3);
}

bool port_open(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  close(fd);
  return ok;
}

pid_t spawn(const std::vector<std::string>& args, const std::string& log) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Child: die with the harness, log to a file, become the manager.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  track(pid);
  return pid;
}

}  // namespace

void install_guards(double limit_s) {
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = on_alarm;
  sigaction(SIGALRM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // a dead peer must fail a call, not the run
  alarm(static_cast<unsigned>(limit_s));
}

std::uint16_t reserve_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    throw std::runtime_error("cannot reserve a loopback port");
  }
  close(fd);
  return ntohs(addr.sin_port);
}

ManagerProcesses::ManagerProcesses(const std::string& cli,
                                   const std::string& dir, std::size_t count,
                                   std::uint32_t replication,
                                   std::size_t nodes) {
  std::string ring;
  for (std::size_t i = 0; i < count; ++i) {
    ring_.push_back({"127.0.0.1", reserve_port()});
    ring += (i ? "," : "") + ring_[i].host + ":" +
            std::to_string(ring_[i].port);
    data_dirs_.push_back(dir + "/mgr" + std::to_string(i));
    std::filesystem::create_directories(data_dirs_.back());
  }
  try {
    for (std::size_t i = 0; i < count; ++i) {
      pids_.push_back(spawn(
          {cli, "manager", "--index", std::to_string(i), "--ring", ring,
           "--replication", std::to_string(replication), "--nodes",
           std::to_string(nodes), "--data-dir", data_dirs_[i]},
          dir + "/mgr" + std::to_string(i) + ".log"));
    }
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    for (std::size_t i = 0; i < count; ++i) {
      while (!port_open(ring_[i].port)) {
        int status = 0;
        if (waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
          untrack(pids_[i]);
          pids_[i] = -1;
          throw std::runtime_error("manager " + std::to_string(i) +
                                   " exited before listening (see " + dir +
                                   "/mgr" + std::to_string(i) + ".log)");
        }
        if (now_ns() > deadline)
          throw std::runtime_error("manager " + std::to_string(i) +
                                   " never opened its port");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  } catch (...) {
    stop_all();
    throw;
  }
}

ManagerProcesses::~ManagerProcesses() { stop_all(); }

void ManagerProcesses::stop_all() {
  for (const pid_t pid : pids_)
    if (pid > 0) kill(pid, SIGTERM);
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    int status = 0;
    while (waitpid(pid, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    untrack(pid);
    pid = -1;
  }
}

}  // namespace perfbench
