// The benchmark workloads. Each runs its rounds, checks the program's
// outputs, and adds the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) to the report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "rating/types.h"

namespace perfbench {

/// In-process ReputationService, global scope, WAL off: detection
/// dominates.
void run_detect_sweep(const Options& o, Report& report);
/// RpcServer on loopback with open- and closed-loop SubmitRating writers.
void run_front_door(const Options& o, Report& report);

// --- Shared by the workloads ------------------------------------------

/// Compares two ascending id sets; on mismatch records the failed check
/// with the first difference.
void check_same_ids(Report& report, const std::string& name,
                    const std::vector<p2prep::rating::NodeId>& got,
                    const std::vector<p2prep::rating::NodeId>& want);

/// Time-to-detection samples in ms for pairs with both timestamps set;
/// records a failed check naming how many pairs were never seen.
std::vector<double> ttd_samples(Report& report,
                                const std::vector<std::int64_t>& acked_at,
                                const std::vector<std::int64_t>& seen_at);

}  // namespace perfbench
