// Registry adapters for the pairwise methods and the group detector,
// translating each into the shared core::DetectionReport shape:
//
//  * BasicAdapter / OptimizedAdapter — run detect::sweep_{basic,optimized}
//    plus the accomplice exchange over the snapshot, one matrix or S shard
//    matrices alike: the same code core::{Basic,Optimized}
//    CollusionDetector::detect runs, so the reports (cost included) are
//    identical to direct instantiation.
//  * GroupAdapter — runs core::GroupCollusionDetector and re-expresses
//    each CollusionGroup as a RingEvidence record (members + inside /
//    outside aggregates), so group membership flows through the same
//    suppression, accomplice and RPC paths as ring membership. Group
//    stays single-matrix (the service restricts it to one shard), so a
//    multi-matrix snapshot there is a host bug — std::logic_error.
#pragma once

#include "core/group_detector.h"
#include "detect/detector.h"

namespace p2prep::detect {

class BasicAdapter final : public Detector {
 public:
  using Detector::Detector;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "basic";
  }

  void on_epoch(const EpochSnapshot& snapshot,
                core::DetectionReport& report) override;
};

class OptimizedAdapter final : public Detector {
 public:
  using Detector::Detector;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "optimized";
  }

  void on_epoch(const EpochSnapshot& snapshot,
                core::DetectionReport& report) override;
};

class GroupAdapter final : public Detector {
 public:
  explicit GroupAdapter(core::DetectorConfig config)
      : Detector(config), inner_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "group";
  }

  void on_epoch(const EpochSnapshot& snapshot,
                core::DetectionReport& report) override;

 private:
  core::GroupCollusionDetector inner_;
};

}  // namespace p2prep::detect
