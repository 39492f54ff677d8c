// Layer-by-layer replay of a workload's stream, for the traced run. The
// stream goes through service::ServiceShards partitioned by a
// service::ShardMap; at every epoch position the replay runs
// update_reputations(), detect::sweep_optimized and
// detect::propagate_accomplices on an EpochSnapshot, with a
// util::ThreadPool executor sized to the service's scan-thread budget —
// the global epoch's steps, each timed on its own. WAL append, checkpoint
// and the RPC submit codec are replayed over the same stream, and a
// prefix of it goes through a three-manager cluster (p2prep_cli manager
// processes, M=2) the way the decentralized service mode drives one.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "core/config.h"
#include "stream.h"

namespace perfbench {

struct ReplaySpec {
  std::size_t shards = 4;
  std::size_t epoch_ratings = 0;
  std::size_t scan_threads = 4;
  p2prep::core::DetectorConfig detector;
  std::string dir;  ///< Scratch directory for WAL and checkpoint files.
  std::string cli;  ///< p2prep_cli binary, run as the cluster's managers.
  /// Stream prefix forwarded through the cluster, in eight epochs.
  std::size_t cluster_ratings = 16384;
};

/// Replays `s`, adds the replay-based per-layer metrics to `report`
/// (`with_recover` adds wal.recover_ms from reading the replayed files
/// back) and returns the flagged set, ascending.
std::vector<p2prep::rating::NodeId> replay_layers(const Stream& s,
                                                  const ReplaySpec& spec,
                                                  bool with_recover,
                                                  Report& report);

}  // namespace perfbench
