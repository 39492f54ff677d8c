// Figure 11: reputation distribution in EigenTrust employing the Optimized
// detection method with compromised pretrusted nodes (same cast as Fig. 7:
// n1 colludes with n4, n2 with n6; B = 0.2).
//
// Expected shape vs Figure 7: both the colluders AND the two compromised
// pretrusted nodes end with reputation 0; the clean pretrusted node (id 3)
// keeps a high reputation; normal nodes gain. Note: detecting the
// compromised pretrusted nodes requires the accomplice-propagation
// extension (detect/accomplice_exchange.h) — their good service erases the
// paper's C2 evidence, so the pairwise predicate alone cannot flag them.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace p2prep;

  net::ExperimentSpec spec;
  spec.config = bench::paper_sim_config(/*colluder_good_prob=*/0.2);
  spec.roles = net::compromised_roles();
  spec.engine = net::EngineKind::kWeighted;
  spec.detector_config = bench::sim_detector_config();
  spec.detector = net::DetectorKind::kOptimized;
  spec.runs = 5;

  const net::ExperimentResult result = net::run_experiment(spec);
  bench::print_reputation_figure(
      "Figure 11: EigenTrust+Optimized, compromised pretrusted, B=0.2",
      result, spec.roles);
  bench::print_detection_summary(result);

  std::printf("shape check: compromised pretrusted n1=%.6f n2=%.6f "
              "(expect 0); clean pretrusted n3=%.5f (expect high); "
              "colluder detection rate n4=%.2f n6=%.2f\n",
              result.avg_reputation[0], result.avg_reputation[1],
              result.avg_reputation[2], result.detection_rate[3],
              result.detection_rate[5]);
  return 0;
}
