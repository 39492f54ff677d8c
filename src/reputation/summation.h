// eBay-style summation reputation (paper Sec. IV-A): a node's reputation is
// the sum of all its received -1/0/+1 ratings. Published either raw or
// normalized to [0, 1] across nodes (raw negative sums clamp to 0 before
// normalization so the published vector is a distribution, comparable with
// EigenTrust's output scale and the paper's T_R = 0.05 threshold).
#pragma once

#include <vector>

#include "reputation/engine.h"

namespace p2prep::reputation {

class SummationEngine final : public ReputationEngine {
 public:
  /// If `normalize` is true (default), published reputations are
  /// max(sum,0)/Σ max(sum,0); otherwise the raw sums are published.
  explicit SummationEngine(std::size_t n = 0, bool normalize = true);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Summation";
  }
  void resize(std::size_t n) override;
  [[nodiscard]] std::size_t num_nodes() const noexcept override {
    return sums_.size();
  }
  void ingest(const rating::Rating& r) override;
  void update_epoch() override;
  [[nodiscard]] double reputation(rating::NodeId i) const override;
  [[nodiscard]] std::span<const double> reputations() const override {
    return published_;
  }

  /// Raw lifetime sum N+_i - N-_i (always available, even when normalizing).
  [[nodiscard]] std::int64_t raw_sum(rating::NodeId i) const {
    return sums_.at(i);
  }

  /// T_R filters on the raw sum (see WeightedFeedbackEngine).
  [[nodiscard]] double detection_reputation(rating::NodeId i) const override {
    return is_suppressed(i) ? 0.0 : static_cast<double>(sums_.at(i));
  }

  void reset_reputation(rating::NodeId i) override {
    if (i < sums_.size()) {
      sums_[i] = 0;
      published_[i] = 0.0;
    }
  }

  /// Shard handoff: extracts node i's raw sum (zeroing it here) so the
  /// receiving shard's engine can restore_raw_sum() it. The published
  /// view refreshes at the next update_epoch().
  [[nodiscard]] std::int64_t take_raw_sum(rating::NodeId i) {
    const std::int64_t sum = sums_.at(i);
    sums_[i] = 0;
    published_[i] = 0.0;
    return sum;
  }
  /// Installs a raw sum moved from another shard's engine. The target
  /// must not be accumulating for node i (its sum is overwritten).
  void restore_raw_sum(rating::NodeId i, std::int64_t sum) {
    sums_.at(i) = sum;
    published_[i] = normalize_ ? 0.0 : static_cast<double>(sum);
  }

  /// Checkpointing: writes node count + raw sums; load refuses a blob
  /// whose count is not num_nodes() and recomputes the published view so
  /// reputations() is valid immediately after.
  bool save_state(std::ostream& out) const override;
  bool load_state(std::istream& in) override;

 private:
  std::vector<std::int64_t> sums_;
  std::vector<double> published_;
  bool normalize_;
};

}  // namespace p2prep::reputation
