#include "rating/row_index.h"

#include <stdexcept>
#include <utility>

namespace p2prep::rating {

RowIndex::RowIndex(std::vector<std::uint32_t> owners, std::size_t num_parts)
    : owners_(std::move(owners)),
      ranks_(owners_.size()),
      nodes_(owners_.size()),
      offsets_(num_parts + 1, 0) {
  for (const std::uint32_t p : owners_) {
    if (p >= num_parts)
      throw std::invalid_argument("row index: owner out of range");
    ++offsets_[p + 1];
  }
  for (std::size_t p = 0; p < num_parts; ++p) offsets_[p + 1] += offsets_[p];
  // Ascending ids fill each partition's run in order, so ranks ascend too.
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (NodeId i = 0; i < owners_.size(); ++i) {
    const std::uint32_t p = owners_[i];
    ranks_[i] = fill[p] - offsets_[p];
    nodes_[fill[p]++] = i;
  }
}

std::shared_ptr<const RowIndex> RowIndex::single(std::size_t n) {
  return std::make_shared<const RowIndex>(std::vector<std::uint32_t>(n, 0), 1);
}

void RowIndex::throw_bad_id() {
  throw std::out_of_range("row index: node id");
}

std::uint32_t RowIndex::owned_slot(NodeId i, std::uint32_t part) const {
  const std::uint32_t s = checked_slot(i, part);
  if (s == kNoSlot)
    throw std::out_of_range("row index: node not in this partition");
  return s;
}

std::size_t RowIndex::slot_table_bytes() const noexcept {
  return ranks_.capacity() * sizeof(std::uint32_t) +
         nodes_.capacity() * sizeof(NodeId) +
         offsets_.capacity() * sizeof(std::uint32_t);
}

}  // namespace p2prep::rating
