// In-memory span recorder for the traced run. A span has a name, a start,
// an end, the span that was open on the same thread when it started (its
// parent) and an operation id (the rating's stream index, an epoch number,
// ...) that ties spans of one operation together across threads. Spans
// live in per-thread buffers and are written out once, at exit; with
// tracing off a Scope costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench::trace {

void set_enabled(bool on);

/// RAII span. `name` must be a string literal (its pointer is kept).
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t op = 0);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t index_ = -1;  ///< Slot in this thread's buffer; -1 = off.
};

/// Writes every recorded span to `path` as CSV (name, id, parent, op,
/// start_ns, end_ns; parent -1 for roots) and returns a per-name summary
/// of count, total and self time — a span's duration minus the time its
/// child spans cover.
std::string dump(const std::string& path);

}  // namespace perfbench::trace
