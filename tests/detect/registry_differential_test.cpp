// Differential proof that the registry refactor changed nothing: for 100
// randomized collusion traces, a registry-constructed detector must emit a
// report byte-identical (format_epoch_report) to the core detector it
// wraps, instantiated directly — same pairs, same evidence text, same
// colluder sets; the group adapter's rings must carry exactly the core
// group detector's member sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/group_detector.h"
#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "detect/registry.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "rating/store.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"

namespace p2prep {
namespace {

using rating::NodeId;
using rating::Rating;
using rating::RatingMatrix;
using rating::RatingStore;

class RegistryDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    const std::uint64_t seed = GetParam();
    trace_ = testgen::make_trace(seed);
    cfg_ = testgen::config_for(seed);
    RatingStore store(trace_.n);
    for (const Rating& r : trace_.ratings) ASSERT_TRUE(store.ingest(r));
    const std::vector<double> reps = testgen::reputations_of(store);
    matrix_ = RatingMatrix::build(store, reps, cfg_.high_rep_threshold,
                                  cfg_.frequency_min);
  }

  [[nodiscard]] core::DetectionReport via_registry(const char* name) const {
    const auto detector =
        detect::DetectorRegistry::global().create(name, cfg_);
    core::DetectionReport report;
    detector->on_epoch(detect::EpochSnapshot::of(matrix_), report);
    return report;
  }

  testgen::Trace trace_;
  core::DetectorConfig cfg_;
  RatingMatrix matrix_{0};
};

TEST_P(RegistryDifferentialTest, BasicAdapterMatchesDirectInstantiation) {
  const core::DetectionReport direct =
      core::BasicCollusionDetector(cfg_).detect(matrix_);
  const core::DetectionReport adapted = via_registry("basic");
  EXPECT_EQ(service::format_epoch_report("diff", 1, direct),
            service::format_epoch_report("diff", 1, adapted));
  EXPECT_EQ(direct.colluders(), adapted.colluders());
  EXPECT_EQ(direct.cost.total(), adapted.cost.total());
}

TEST_P(RegistryDifferentialTest, OptimizedAdapterMatchesDirectInstantiation) {
  const core::DetectionReport direct =
      core::OptimizedCollusionDetector(cfg_).detect(matrix_);
  const core::DetectionReport adapted = via_registry("optimized");
  EXPECT_EQ(service::format_epoch_report("diff", 1, direct),
            service::format_epoch_report("diff", 1, adapted));
  EXPECT_EQ(direct.colluders(), adapted.colluders());
  EXPECT_EQ(direct.cost.total(), adapted.cost.total());
}

TEST_P(RegistryDifferentialTest, GroupAdapterCarriesGroupMembersAsRings) {
  const core::GroupDetectionReport direct =
      core::GroupCollusionDetector(cfg_).detect(matrix_);
  const core::DetectionReport adapted = via_registry("group");
  ASSERT_EQ(adapted.rings.size(), direct.groups.size());
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
    EXPECT_EQ(adapted.rings[k].members, expected[k]) << "ring " << k;
  }
  EXPECT_EQ(adapted.colluders(), direct.colluders());
  EXPECT_TRUE(adapted.pairs.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace p2prep
