#include "reputation/summation.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <ostream>

namespace p2prep::reputation {

namespace {

// Explicit little-endian framing so checkpoints are host-order
// independent (same convention as the service WAL).
void put_u64(std::ostream& out, std::uint64_t v) {
  std::array<char, 8> b;
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] =
      static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b.data(), 8);
}

bool get_u64(std::istream& in, std::uint64_t& v) {
  std::array<char, 8> b;
  if (!in.read(b.data(), 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             b[static_cast<std::size_t>(i)]))
         << (8 * i);
  return true;
}

}  // namespace

SummationEngine::SummationEngine(std::size_t n, bool normalize)
    : normalize_(normalize) {
  resize(n);
}

void SummationEngine::resize(std::size_t n) {
  if (n <= sums_.size()) return;
  sums_.resize(n, 0);
  published_.resize(n, 0.0);
}

void SummationEngine::ingest(const rating::Rating& r) {
  if (r.ratee >= sums_.size()) resize(r.ratee + 1);
  sums_[r.ratee] += rating::score_value(r.score);
  cost_.add_arith();
}

void SummationEngine::update_epoch() {
  const std::size_t n = sums_.size();
  if (normalize_) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      published_[i] = std::max<double>(0.0, static_cast<double>(sums_[i]));
      total += published_[i];
    }
    cost_.add_arith(2 * n);
    if (total > 0.0) {
      for (auto& p : published_) p /= total;
      cost_.add_arith(n);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      published_[i] = static_cast<double>(sums_[i]);
    cost_.add_arith(n);
  }
  for (rating::NodeId i : suppressed_) {
    if (i < published_.size()) published_[i] = 0.0;
  }
}

double SummationEngine::reputation(rating::NodeId i) const {
  return published_.at(i);
}

bool SummationEngine::save_state(std::ostream& out) const {
  put_u64(out, sums_.size());
  for (std::int64_t s : sums_) put_u64(out, static_cast<std::uint64_t>(s));
  return static_cast<bool>(out);
}

bool SummationEngine::load_state(std::istream& in) {
  // A blob sized for another node count is malformed; refusing it before
  // allocating also keeps a hostile count from sizing the vector.
  std::uint64_t n = 0;
  if (!get_u64(in, n) || n != sums_.size()) return false;
  std::vector<std::int64_t> sums(n);
  for (auto& s : sums) {
    std::uint64_t raw = 0;
    if (!get_u64(in, raw)) return false;
    s = static_cast<std::int64_t>(raw);
  }
  sums_ = std::move(sums);
  published_.assign(sums_.size(), 0.0);
  update_epoch();  // republish from the restored sums
  return true;
}

}  // namespace p2prep::reputation
