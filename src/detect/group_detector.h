// detect::GroupDetector — the group collusion detector (core::detect_groups,
// core/group_detector.h) behind the detector name "group". Each
// CollusionGroup is re-expressed as a RingEvidence record (members +
// inside / outside aggregates), so group membership flows through the
// same suppression, accomplice and RPC paths as ring membership. Group
// stays single-matrix (the service restricts it to one shard), so a
// multi-matrix snapshot here is a host bug — std::logic_error.
#pragma once

#include "detect/detector.h"

namespace p2prep::detect {

class GroupDetector final : public Detector {
 public:
  using Detector::Detector;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "group";
  }

  [[nodiscard]] core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) override;
};

}  // namespace p2prep::detect
