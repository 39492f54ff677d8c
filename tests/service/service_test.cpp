#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "managers/incremental.h"
#include "reputation/summation.h"
#include "util/rng.h"

namespace p2prep::service {
namespace {

using rating::Rating;
using rating::Score;

ServiceConfig base_config(std::size_t n, std::size_t shards) {
  ServiceConfig cfg;
  cfg.num_nodes = n;
  cfg.num_shards = shards;
  cfg.epoch_ratings = 1u << 30;  // epochs driven by force_epoch()
  cfg.detector_config.positive_fraction_min = 0.8;
  cfg.detector_config.complement_fraction_max = 0.2;
  cfg.detector_config.frequency_min = 20;
  cfg.detector_config.high_rep_threshold = 0.05;
  return cfg;
}

/// The incremental-manager test workload: colluding pairs (0,1) and (2,3)
/// plus random background ratings that leave the colluders' complements
/// negative and everyone else well-rated.
std::vector<Rating> collusion_workload(std::uint64_t seed, std::size_t n) {
  std::vector<Rating> out;
  util::Rng rng(seed);
  rating::Tick t = 0;
  for (int k = 0; k < 40; ++k) {
    out.push_back({0, 1, Score::kPositive, t++});
    out.push_back({1, 0, Score::kPositive, t++});
    out.push_back({2, 3, Score::kPositive, t++});
    out.push_back({3, 2, Score::kPositive, t++});
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 5; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      out.push_back({rater, ratee,
                     rng.chance(ratee < 4 ? 0.05 : 0.85) ? Score::kPositive
                                                         : Score::kNegative,
                     t++});
    }
  }
  return out;
}

TEST(ServiceTest, RejectsInvalidRatingsAndCountsThem) {
  ReputationService svc(base_config(10, 2));
  EXPECT_FALSE(svc.ingest({3, 3, Score::kPositive, 0}));   // self-rating
  EXPECT_FALSE(svc.ingest({3, 10, Score::kPositive, 0}));  // ratee range
  EXPECT_FALSE(svc.ingest({10, 3, Score::kPositive, 0}));  // rater range
  EXPECT_TRUE(svc.ingest({3, 4, Score::kPositive, 0}));
  svc.drain();
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.ratings_rejected, 3u);
  EXPECT_EQ(m.ratings_accepted, 1u);
  EXPECT_EQ(m.ratings_applied, 1u);
}

TEST(ServiceTest, IngestAfterStopReturnsFalse) {
  ReputationService svc(base_config(10, 1));
  EXPECT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
  svc.stop();
  EXPECT_FALSE(svc.ingest({1, 2, Score::kPositive, 1}));
}

TEST(ServiceTest, PerShardScopeFlagsSameShardColluders) {
  constexpr std::size_t kN = 40;
  ServiceConfig cfg = base_config(kN, 2);
  cfg.epoch_scope = EpochScope::kPerShard;
  ReputationService svc(cfg);

  // Per-shard detection can only see a pair whose members share a shard.
  rating::NodeId c0 = 0;
  while (svc.shard_of(c0) != 0) ++c0;
  rating::NodeId c1 = c0 + 1;
  while (svc.shard_of(c1) != 0 || c1 == c0) ++c1;
  ASSERT_LT(c1, kN);

  rating::Tick t = 0;
  for (int k = 0; k < 30; ++k) {
    ASSERT_TRUE(svc.ingest({c0, c1, Score::kPositive, t++}));
    ASSERT_TRUE(svc.ingest({c1, c0, Score::kPositive, t++}));
  }
  // Five outsiders give one negative each: the complement evidence.
  int outsiders = 0;
  for (rating::NodeId i = 0; i < kN && outsiders < 5; ++i) {
    if (i == c0 || i == c1) continue;
    ASSERT_TRUE(svc.ingest({i, c0, Score::kNegative, t++}));
    ASSERT_TRUE(svc.ingest({i, c1, Score::kNegative, t++}));
    ++outsiders;
  }
  // Everyone else becomes high-reputed through infrequent positives.
  for (rating::NodeId i = 0; i < kN; ++i) {
    if (i == c0 || i == c1) continue;
    auto rater = static_cast<rating::NodeId>((i + 1) % kN);
    while (rater == i || rater == c0 || rater == c1)
      rater = static_cast<rating::NodeId>((rater + 1) % kN);
    for (int k = 0; k < 10; ++k)
      ASSERT_TRUE(svc.ingest({rater, i, Score::kPositive, t++}));
  }

  svc.force_epoch();
  svc.drain();

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_TRUE(snap.suspected(c0));
  EXPECT_TRUE(snap.suspected(c1));
  // Suppression (kReset) zeroed the colluders' reputations.
  EXPECT_EQ(snap.reputation(c0), 0.0);
  EXPECT_EQ(snap.reputation(c1), 0.0);
  std::size_t suspects = 0;
  for (rating::NodeId i = 0; i < kN; ++i)
    if (snap.suspected(i)) ++suspects;
  EXPECT_EQ(suspects, 2u);

  const std::string log = svc.report_log();
  EXPECT_NE(log.find("shard 0"), std::string::npos);
  EXPECT_NE(log.find("pairs=1"), std::string::npos);

  const ServiceMetrics m = svc.metrics();
  EXPECT_GE(m.epochs_completed, 2u);  // one forced epoch per shard
  EXPECT_EQ(m.detections_total, 1u);
}

class GlobalEquivalenceTest : public ::testing::TestWithParam<std::string> {};

// The cross-shard global sweep must reproduce a single centralized
// manager + detector byte for byte: same flagged pairs, same evidence
// values in the report text, same post-suppression reputations.
TEST_P(GlobalEquivalenceTest, MatchesSingleManagerReference) {
  constexpr std::size_t kN = 50;
  ServiceConfig cfg = base_config(kN, 3);
  cfg.detector = GetParam();
  ReputationService svc(cfg);

  // Accomplice propagation stays on across shards (the cross-shard
  // flagged-set exchange); the single-manager reference runs the core
  // detectors' own walk with the same config and must agree.
  core::DetectorConfig ref_cfg = svc.config().detector_config;
  ASSERT_TRUE(ref_cfg.flag_accomplices);
  reputation::SummationEngine ref_engine(kN, /*normalize=*/false);
  managers::IncrementalCentralizedManager ref(kN, ref_engine, ref_cfg);
  std::unique_ptr<detect::Detector> ref_detector;
  if (GetParam() == "basic")
    ref_detector = std::make_unique<detect::BasicDetector>(ref_cfg);
  else
    ref_detector = std::make_unique<detect::OptimizedDetector>(ref_cfg);

  const std::vector<Rating> workload = collusion_workload(11, kN);
  std::string expected_log;
  std::uint64_t expected_detections = 0;

  const std::size_t chunk = workload.size() / 3 + 1;
  std::size_t fed = 0;
  while (fed < workload.size()) {
    const std::size_t end = std::min(fed + chunk, workload.size());
    for (; fed < end; ++fed) {
      ASSERT_TRUE(svc.ingest(workload[fed]));
      ASSERT_TRUE(ref.ingest(workload[fed]));
    }
    const std::uint64_t seq = svc.force_epoch();
    svc.drain();

    ref.update_reputations();
    const core::DetectionReport ref_report = ref.run_detection(
        *ref_detector, managers::CentralizedManager::SuppressionMode::kReset);
    expected_log += format_epoch_report("global", seq, ref_report);
    expected_detections += ref_report.pairs.size();
  }
  svc.stop();

  EXPECT_EQ(svc.report_log(), expected_log);
  EXPECT_EQ(svc.metrics().detections_total, expected_detections);
  EXPECT_GT(expected_detections, 0u);

  const ServiceSnapshot snap = svc.snapshot();
  for (rating::NodeId i = 0; i < kN; ++i) {
    EXPECT_EQ(snap.reputation(i), ref_engine.detection_reputation(i))
        << "node " << i;
    EXPECT_EQ(snap.suspected(i), ref.detected().contains(i)) << "node " << i;
  }
  EXPECT_TRUE(snap.suspected(0) && snap.suspected(1));
  EXPECT_TRUE(snap.suspected(2) && snap.suspected(3));
}

INSTANTIATE_TEST_SUITE_P(Detectors, GlobalEquivalenceTest,
                         ::testing::Values(std::string("basic"),
                                           std::string("optimized")),
                         [](const auto& info) {
                           return info.param == "basic" ? "Basic"
                                                        : "Optimized";
                         });

TEST(ServiceTest, GlobalRatingCountCadenceFiresEpochs) {
  constexpr std::size_t kN = 30;
  ServiceConfig cfg = base_config(kN, 2);
  cfg.epoch_ratings = 50;
  ReputationService svc(cfg);
  rating::Tick t = 0;
  for (int k = 0; k < 120; ++k) {
    const auto rater = static_cast<rating::NodeId>(k % kN);
    const auto ratee = static_cast<rating::NodeId>((k + 7) % kN);
    if (rater == ratee) continue;
    ASSERT_TRUE(svc.ingest({rater, ratee, Score::kPositive, t++}));
  }
  svc.drain();
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.epochs_completed, 2u);  // 120 accepted / 50
  EXPECT_EQ(svc.snapshot().min_epoch(), 2u);
}

TEST(ServiceTest, SnapshotReadsOutsideTheNodeSpaceAreEmpty) {
  constexpr std::size_t kN = 20;
  ReputationService svc(base_config(kN, 2));
  for (const Rating& r : collusion_workload(5, kN))
    ASSERT_TRUE(svc.ingest(r));
  svc.force_epoch();
  svc.drain();
  const ServiceSnapshot snap = svc.snapshot();
  ASSERT_TRUE(snap.suspected(0));  // the view is populated
  for (const rating::NodeId id :
       {rating::NodeId{kN}, rating::NodeId{kN + 1}, rating::NodeId{1u << 20},
        ~rating::NodeId{0}}) {
    EXPECT_EQ(snap.reputation(id), 0.0) << id;
    EXPECT_FALSE(snap.suspected(id)) << id;
    EXPECT_EQ(snap.owner(id), 0u) << id;
  }
  // A default snapshot holds no view and no map.
  const ServiceSnapshot empty;
  EXPECT_EQ(empty.reputation(0), 0.0);
  EXPECT_FALSE(empty.suspected(0));
  EXPECT_EQ(empty.min_epoch(), 0u);
  EXPECT_EQ(empty.num_shards(), 0u);
}

TEST(ServiceTest, VirtualTimeCadenceFiresEpochs) {
  ServiceConfig cfg = base_config(20, 2);
  cfg.epoch_ratings = 0;
  cfg.epoch_ticks = 10;
  ReputationService svc(cfg);
  for (rating::Tick t = 1; t <= 35; ++t) {
    const auto rater = static_cast<rating::NodeId>(t % 20);
    const auto ratee = static_cast<rating::NodeId>((t + 3) % 20);
    ASSERT_TRUE(svc.ingest({rater, ratee, Score::kPositive, t}));
  }
  svc.drain();
  // Epochs at the first ratings with tick >= 10, >= 20(+..), >= 30.
  EXPECT_EQ(svc.metrics().epochs_completed, 3u);
}

// A long-running server (`p2prep_cli serve`) never reads report_log(), so
// it turns record_reports off: then no number of global epochs may grow
// the log, and detection itself must be unaffected.
TEST(ServiceTest, RecordReportsOffKeepsReportLogEmptyAcrossEpochs) {
  constexpr std::size_t kN = 40;
  const std::vector<Rating> workload = collusion_workload(11, kN);
  struct Run {
    std::string log;
    std::uint64_t epochs = 0;
    std::vector<bool> suspected;
  };
  const auto run = [&](bool record_reports) {
    ServiceConfig cfg = base_config(kN, 2);
    cfg.epoch_ratings = 16;
    cfg.record_reports = record_reports;
    ReputationService svc(cfg);
    for (const Rating& r : workload) EXPECT_TRUE(svc.ingest(r));
    for (int k = 0; k < 100; ++k) svc.force_epoch();
    svc.drain();
    Run out;
    out.log = svc.report_log();
    out.epochs = svc.metrics().epochs_completed;
    const ServiceSnapshot snap = svc.snapshot();
    for (rating::NodeId i = 0; i < kN; ++i)
      out.suspected.push_back(snap.suspected(i));
    return out;
  };

  const Run off = run(false);
  const Run on = run(true);
  EXPECT_GE(off.epochs, 100u);
  EXPECT_EQ(off.log, "");
  EXPECT_NE(on.log, "");  // the same epochs do produce reports when kept
  EXPECT_EQ(off.epochs, on.epochs);
  EXPECT_EQ(off.suspected, on.suspected);
  EXPECT_TRUE(off.suspected[0] && off.suspected[1]);
}

TEST(ServiceTest, MetricsDumpContainsAllSections) {
  ReputationService svc(base_config(10, 1));
  ASSERT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
  svc.force_epoch();
  svc.drain();
  const std::string dump = svc.metrics().to_string();
  EXPECT_NE(dump.find("ingest:"), std::string::npos);
  EXPECT_NE(dump.find("epochs:"), std::string::npos);
  EXPECT_NE(dump.find("wal:"), std::string::npos);
}

TEST(ServiceMetrics, ToStringPrintsEveryKeyOnce) {
  ServiceMetrics m;
  std::uint64_t next = 1;
  std::vector<std::pair<std::string, std::string>> rows;  // group, key=value
  ServiceMetrics::for_each_field(
      m, [&](std::string_view group, std::string_view key, auto& field) {
        field = static_cast<std::remove_reference_t<decltype(field)>>(next);
        rows.emplace_back(std::string(group),
                          std::string(key) + '=' + std::to_string(next++));
      });
  const std::string dump = m.to_string();

  // One "group: key=value ..." line per group, groups never split.
  std::vector<std::string> lines;
  std::istringstream in(dump);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::string> groups;
  for (const auto& [group, kv] : rows)
    if (groups.empty() || groups.back() != group) groups.push_back(group);
  ASSERT_EQ(lines.size(), groups.size()) << dump;
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i].rfind(groups[i] + ": ", 0), 0u) << lines[i];

  for (const auto& [group, kv] : rows) {
    const auto g = std::find(groups.begin(), groups.end(), group);
    const std::string line = ' ' + lines[g - groups.begin()] + ' ';
    const std::string token = ' ' + kv + ' ';
    const auto at = line.find(token);
    EXPECT_NE(at, std::string::npos) << token << " in " << line;
    EXPECT_EQ(line.find(token, at + 1), std::string::npos) << token;
  }
  EXPECT_EQ(static_cast<std::size_t>(std::count(dump.begin(), dump.end(), '=')),
            rows.size());
}

TEST(ServiceTest, InvalidConfigThrows) {
  ServiceConfig cfg;  // num_nodes == 0
  EXPECT_THROW(ReputationService svc(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace p2prep::service
