// eBay-style summation reputation (paper Sec. IV-A): a node's reputation is
// the sum of all its received -1/0/+1 ratings. Published either raw or
// normalized to [0, 1] across nodes (raw negative sums clamp to 0 before
// normalization so the published vector is a distribution, comparable with
// EigenTrust's output scale and the paper's T_R = 0.05 threshold).
//
// Like a RatingMatrix, an engine keeps state only for the nodes its
// partition of a rating::RowIndex owns: one sum and one published value
// per owned slot. A standalone engine is the one-partition case. Every
// accessor takes global ids; a node the partition does not own reads 0.
#pragma once

#include <memory>
#include <vector>

#include "rating/row_index.h"
#include "reputation/engine.h"

namespace p2prep::reputation {

class SummationEngine final : public ReputationEngine {
 public:
  /// If `normalize` is true (default), published reputations are
  /// max(sum,0)/Σ max(sum,0); otherwise the raw sums are published.
  explicit SummationEngine(std::size_t n = 0, bool normalize = true);
  /// An engine for partition `part` of `index`: sums for its nodes only.
  SummationEngine(std::shared_ptr<const rating::RowIndex> index,
                  std::uint32_t part, bool normalize);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Summation";
  }
  /// Grows a standalone engine to `n` nodes; a partitioned engine cannot
  /// grow (std::logic_error).
  void resize(std::size_t n) override;
  [[nodiscard]] std::size_t num_nodes() const noexcept override {
    return index_->num_nodes();
  }
  /// Counts r for its ratee, which this partition must own
  /// (std::out_of_range otherwise); a standalone engine first grows to
  /// cover it.
  void ingest(const rating::Rating& r) override;
  void update_epoch() override;
  [[nodiscard]] double reputation(rating::NodeId i) const override;
  /// The published values by slot: by node id on a standalone engine,
  /// by owned slot on a partitioned one (read those through
  /// reputation(i)).
  [[nodiscard]] std::span<const double> reputations() const override {
    return published_;
  }

  /// Raw lifetime sum N+_i - N-_i (always available, even when normalizing).
  [[nodiscard]] std::int64_t raw_sum(rating::NodeId i) const {
    const std::uint32_t s = slot(i);
    return s != rating::RowIndex::kNoSlot ? sums_[s] : 0;
  }

  /// T_R filters on the raw sum (see WeightedFeedbackEngine).
  [[nodiscard]] double detection_reputation(rating::NodeId i) const override {
    return is_suppressed(i) ? 0.0 : static_cast<double>(raw_sum(i));
  }

  void reset_reputation(rating::NodeId i) override {
    const std::uint32_t s =
        i < num_nodes() ? slot(i) : rating::RowIndex::kNoSlot;
    if (s != rating::RowIndex::kNoSlot) {
      sums_[s] = 0;
      published_[s] = 0.0;
    }
  }

  /// Shard handoff: extracts node i's raw sum (zeroing it here) so the
  /// receiving shard's engine can restore_raw_sum() it. The published
  /// view refreshes at the next update_epoch(). A node this partition
  /// does not own has a zero sum.
  [[nodiscard]] std::int64_t take_raw_sum(rating::NodeId i) {
    const std::int64_t sum = raw_sum(i);
    reset_reputation(i);
    return sum;
  }
  /// Installs a raw sum moved from another shard's engine. The target
  /// must own node i and not be accumulating for it (its sum is
  /// overwritten).
  void restore_raw_sum(rating::NodeId i, std::int64_t sum) {
    const std::uint32_t s = owned_slot(i);
    sums_[s] = sum;
    published_[s] = normalize_ ? 0.0 : static_cast<double>(sum);
  }

  /// Re-slots the sums and published values for `index` (same node
  /// count): a node this partition still owns keeps its values, a node
  /// it no longer owns is dropped (a resize takes its sum first).
  void repartition(std::shared_ptr<const rating::RowIndex> index);

  /// Checkpointing: writes node count + raw sums, one per node (0 for the
  /// nodes this partition does not own); load refuses a blob whose count
  /// is not num_nodes() or that gives a node it does not own a non-zero
  /// sum, and recomputes the published view so reputations() is valid
  /// immediately after.
  bool save_state(std::ostream& out) const override;
  bool load_state(std::istream& in) override;

 private:
  /// Node i's slot, or RowIndex::kNoSlot when this partition does not own
  /// it. Throws std::out_of_range for i >= num_nodes().
  [[nodiscard]] std::uint32_t slot(rating::NodeId i) const {
    return index_->checked_slot(i, part_);
  }
  /// Node i's slot; throws std::out_of_range unless this partition owns i.
  [[nodiscard]] std::uint32_t owned_slot(rating::NodeId i) const {
    return index_->owned_slot(i, part_);
  }

  std::shared_ptr<const rating::RowIndex> index_;
  std::uint32_t part_ = 0;
  std::vector<std::int64_t> sums_;     ///< per owned slot
  std::vector<double> published_;      ///< per owned slot
  bool normalize_;
};

}  // namespace p2prep::reputation
