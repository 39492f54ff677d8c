// Differential proof that each registry detector is exactly the code
// behind it: for 100 randomized collusion traces, the registry's "basic"
// and "optimized" detectors must emit a report byte-identical
// (format_epoch_report) to detect::sweep_{basic,optimized} plus
// detect::propagate_accomplices called directly — same pairs, same
// evidence text, same colluder sets, same cost; the "group" detector's
// rings must carry exactly detect::detect_groups' member sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/accomplice_exchange.h"
#include "detect/group_detector.h"
#include "detect/pair_sweep.h"
#include "detect/registry.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"

namespace p2prep {
namespace {

using rating::NodeId;
using rating::RatingMatrix;

class RegistryDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    const std::uint64_t seed = GetParam();
    trace_ = testgen::make_trace(seed);
    cfg_ = testgen::config_for(seed);
    matrix_ = testgen::window_matrix(
        trace_.ratings, testgen::reputations_of(trace_),
        cfg_.high_rep_threshold, cfg_.frequency_min,
        rating::ScanCost::kFullRow);
  }

  [[nodiscard]] core::DetectionReport via_registry(const char* name) const {
    const auto detector = detect::make_detector(name, cfg_);
    return detector->on_epoch(detect::EpochSnapshot::of(matrix_));
  }

  /// The sweep plus the accomplice fixpoint, called directly.
  [[nodiscard]] core::DetectionReport swept(
      core::DetectionReport (*sweep)(const detect::EpochSnapshot&,
                                     const core::DetectorConfig&)) const {
    const auto snapshot = detect::EpochSnapshot::of(matrix_);
    core::DetectionReport report = sweep(snapshot, cfg_);
    detect::propagate_accomplices(snapshot, cfg_, report);
    return report;
  }

  testgen::Trace trace_;
  core::DetectorConfig cfg_;
  RatingMatrix matrix_{0};
};

TEST_P(RegistryDifferentialTest, BasicMatchesSweepAndExchange) {
  const core::DetectionReport direct = swept(detect::sweep_basic);
  const core::DetectionReport registered = via_registry("basic");
  EXPECT_EQ(service::format_epoch_report("diff", 1, direct),
            service::format_epoch_report("diff", 1, registered));
  EXPECT_EQ(direct.colluders(), registered.colluders());
  EXPECT_EQ(direct.cost.total(), registered.cost.total());
}

TEST_P(RegistryDifferentialTest, OptimizedMatchesSweepAndExchange) {
  const core::DetectionReport direct = swept(detect::sweep_optimized);
  const core::DetectionReport registered = via_registry("optimized");
  EXPECT_EQ(service::format_epoch_report("diff", 1, direct),
            service::format_epoch_report("diff", 1, registered));
  EXPECT_EQ(direct.colluders(), registered.colluders());
  EXPECT_EQ(direct.cost.total(), registered.cost.total());
}

TEST_P(RegistryDifferentialTest, GroupCarriesDetectGroupsMembersAsRings) {
  const detect::GroupDetectionReport direct =
      detect::detect_groups(detect::EpochSnapshot::of(matrix_), cfg_);
  const core::DetectionReport registered = via_registry("group");
  ASSERT_EQ(registered.rings.size(), direct.groups.size());
  // canonicalize() sorts rings by member list; mirror it on the groups.
  std::vector<std::vector<NodeId>> expected;
  expected.reserve(direct.groups.size());
  for (const auto& g : direct.groups) {
    std::vector<NodeId> members = g.members;
    std::sort(members.begin(), members.end());
    expected.push_back(std::move(members));
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(registered.rings[k].members, expected[k]) << "ring " << k;
  }
  EXPECT_EQ(registered.colluders(), direct.colluders());
  EXPECT_TRUE(registered.pairs.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace p2prep
