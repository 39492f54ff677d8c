#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"

namespace perfbench::trace {

namespace {

struct Span {
  const char* name;
  std::int64_t parent;  ///< Global span id, -1 for a root.
  std::uint64_t op;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Buffer {
  std::uint64_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< Indices of this thread's open spans.
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Buffers outlive their threads; they are read once, by dump().
std::vector<std::unique_ptr<Buffer>> g_buffers;
thread_local Buffer* t_buffer = nullptr;

Buffer& buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = g_buffers.size() - 1;
    t_buffer->spans.reserve(1 << 16);
  }
  return *t_buffer;
}

std::int64_t global_id(const Buffer& b, std::int64_t index) {
  return static_cast<std::int64_t>(b.thread << 40) | index;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t op) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Buffer& b = buffer();
  const std::int64_t parent =
      b.open.empty() ? -1 : global_id(b, b.open.back());
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back({name, parent, op, now_ns(), 0});
  b.open.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& b = *t_buffer;
  b.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  b.open.pop_back();
}

std::string dump(const std::string& path) {
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double child_ms = 0.0;
  };
  std::map<std::string, Totals> totals;
  std::ofstream out(path, std::ios::trunc);
  out << "name,id,parent,op,start_ns,end_ns\n";

  const std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    std::vector<double> child_ms(b->spans.size(), 0.0);
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.parent >= 0)
        child_ms[static_cast<std::size_t>(s.parent & ((1ll << 40) - 1))] += ms;
      Totals& t = totals[s.name];
      ++t.count;
      t.total_ms += ms;
      out << s.name << ',' << global_id(*b, static_cast<std::int64_t>(i))
          << ',' << s.parent << ',' << s.op << ',' << s.start_ns << ','
          << s.end_ns << '\n';
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i)
      totals[b->spans[i].name].child_ms += child_ms[i];
  }

  std::string summary = "span                          count    total_ms     self_ms\n";
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %6llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.total_ms - t.child_ms);
    summary += line;
  }
  return summary;
}

}  // namespace perfbench::trace
