#include "reputation/summation.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

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
    : SummationEngine(rating::RowIndex::single(n), 0, normalize) {}

SummationEngine::SummationEngine(std::shared_ptr<const rating::RowIndex> index,
                                 std::uint32_t part, bool normalize)
    : index_(std::move(index)),
      part_(part),
      sums_(index_->nodes(part).size(), 0),
      published_(sums_.size(), 0.0),
      normalize_(normalize) {}

void SummationEngine::resize(std::size_t n) {
  if (n <= num_nodes()) return;
  if (index_->num_parts() != 1)
    throw std::logic_error("summation: a partitioned engine cannot grow");
  index_ = rating::RowIndex::single(n);
  sums_.resize(n, 0);
  published_.resize(n, 0.0);
}

void SummationEngine::repartition(
    std::shared_ptr<const rating::RowIndex> index) {
  if (index == index_) return;
  if (index->num_nodes() != num_nodes() || part_ >= index->num_parts())
    throw std::invalid_argument("summation: repartition changes shape");
  const std::span<const rating::NodeId> nodes = index->nodes(part_);
  std::vector<std::int64_t> sums(nodes.size(), 0);
  std::vector<double> published(nodes.size(), 0.0);
  for (std::uint32_t s = 0; s < nodes.size(); ++s) {
    const std::uint32_t from = index_->slot(nodes[s], part_);
    if (from == rating::RowIndex::kNoSlot) continue;
    sums[s] = sums_[from];
    published[s] = published_[from];
  }
  index_ = std::move(index);
  sums_ = std::move(sums);
  published_ = std::move(published);
}

void SummationEngine::ingest(const rating::Rating& r) {
  if (r.ratee >= num_nodes()) resize(r.ratee + 1);
  sums_[owned_slot(r.ratee)] += rating::score_value(r.score);
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
    const std::uint32_t s =
        i < num_nodes() ? slot(i) : rating::RowIndex::kNoSlot;
    if (s != rating::RowIndex::kNoSlot) published_[s] = 0.0;
  }
}

double SummationEngine::reputation(rating::NodeId i) const {
  const std::uint32_t s = slot(i);
  return s != rating::RowIndex::kNoSlot ? published_[s] : 0.0;
}

bool SummationEngine::save_state(std::ostream& out) const {
  // One sum per node, whichever partition owns it: the blob layout does
  // not depend on the partitioning.
  const std::size_t n = num_nodes();
  put_u64(out, n);
  for (rating::NodeId i = 0; i < n; ++i) {
    const std::uint32_t s = index_->slot(i, part_);
    put_u64(out, s != rating::RowIndex::kNoSlot
                     ? static_cast<std::uint64_t>(sums_[s])
                     : 0);
  }
  return static_cast<bool>(out);
}

bool SummationEngine::load_state(std::istream& in) {
  // A blob sized for another node count is malformed; refusing it before
  // allocating also keeps a hostile count from sizing the vector. So is
  // a non-zero sum for a node this partition does not own.
  std::uint64_t n = 0;
  if (!get_u64(in, n) || n != num_nodes()) return false;
  std::vector<std::int64_t> sums(sums_.size(), 0);
  for (rating::NodeId i = 0; i < n; ++i) {
    std::uint64_t raw = 0;
    if (!get_u64(in, raw)) return false;
    const std::uint32_t s = index_->slot(i, part_);
    if (s != rating::RowIndex::kNoSlot)
      sums[s] = static_cast<std::int64_t>(raw);
    else if (raw != 0)
      return false;
  }
  sums_ = std::move(sums);
  published_.assign(sums_.size(), 0.0);
  update_epoch();  // republish from the restored sums
  return true;
}

}  // namespace p2prep::reputation
