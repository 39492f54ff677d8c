// CapturingDetector: a test detector that flags nothing and keeps the
// window each pass sees — every stored cell of the snapshot's matrices,
// row by row in ascending (ratee, rater) order within each matrix. A host
// that rolls its window over after detecting (the simulator does, every
// cycle) leaves nothing to read afterwards; this reads it during the pass.
#pragma once

#include <string_view>
#include <vector>

#include "detect/detector.h"

namespace p2prep::detect::testing {

class CapturingDetector final : public Detector {
 public:
  struct Cell {
    rating::NodeId ratee;
    rating::NodeId rater;
    rating::PairStats stats;
  };

  explicit CapturingDetector(core::DetectorConfig config = {})
      : Detector(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "capture";
  }

  [[nodiscard]] core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) override {
    cells_.clear();
    for (const rating::RatingMatrix* matrix : snapshot.matrices) {
      for (const rating::NodeId ratee : matrix->owned_nodes()) {
        matrix->for_each_nonzero_cell(
            ratee, [this, ratee](rating::NodeId rater,
                                 const rating::PairStats& stats) {
              cells_.push_back({ratee, rater, stats});
            });
      }
    }
    ++passes_;
    return {};
  }

  /// The window of the last pass.
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::size_t passes() const noexcept { return passes_; }

 private:
  std::vector<Cell> cells_;
  std::size_t passes_ = 0;
};

}  // namespace p2prep::detect::testing
