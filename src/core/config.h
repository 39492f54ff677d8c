// Detection thresholds (paper Table I discussion and Sec. IV-B).
//
//  T_a — minimum fraction of positive ratings from the suspected partner
//        (C3; the crawled suspicious pairs averaged a = 98.37%).
//  T_b — maximum fraction of positive ratings from everyone else
//        (C2; the crawl averaged b = 1.63%).
//  T_N — minimum number of ratings from one rater within the update window
//        T to count as "frequent" (C4; the trace gives 20/year).
//  T_R — global-reputation threshold above which a node is high-reputed
//        (C1; the paper's simulations use 0.05 on normalized reputations).
//
// Lowering T_a / raising T_b reduces false negatives; the opposite reduces
// false positives (paper Sec. IV-B).
#pragma once

#include <cstdint>

namespace p2prep::core {

struct DetectorConfig {
  double positive_fraction_min = 0.80;   ///< T_a.
  double complement_fraction_max = 0.20; ///< T_b.
  std::uint32_t frequency_min = 20;      ///< T_N.
  double high_rep_threshold = 0.05;      ///< T_R.

  /// Treat a pair as suspicious when nobody besides the partner rated the
  /// node (N_(i,-j) = 0). The Optimized method's Formula (2) implies this
  /// (the b-term vanishes), so keeping it on preserves Basic == Optimized
  /// on such inputs; it is also the purest collusion signature.
  bool empty_complement_is_suspicious = true;

  /// Require the collusion evidence in BOTH directions before flagging a
  /// pair (the paper's method: n_i's side, then the same process from
  /// n_j's line). Mutuality is what keeps honest client->server rating
  /// relationships out, but a Sybil-style one-directional boost (a
  /// throwaway identity that rates the beneficiary and is never rated
  /// back, never earning reputation itself) evades it by construction.
  /// Setting this to false flags a pair on one side's evidence alone —
  /// catching one-way boosts at the price of implicating the boosting
  /// identity of any node whose only fans are that devoted
  /// (bench_ablation_sybil quantifies the trade).
  bool require_mutual = true;

  /// Exclude ALL frequent raters (every k with N_(i,k) >= T_N) from the
  /// complement b, not just the partner j under test. With a single
  /// frequent rater this is exactly the paper's predicate / Formula (2);
  /// with several (a colluder boosted by two partners, e.g. its pair
  /// partner plus a compromised pretrusted node, Fig. 7/11) the paper's
  /// j-only complement is contaminated by the other partner's positives
  /// and the pair escapes detection. The Basic method pays nothing extra
  /// (the row scan tests each cell against T_N as it passes); the
  /// Optimized method uses the frequent-rater aggregate the manager
  /// maintains incrementally (RatingMatrix row metadata), staying O(1)
  /// per pair. Set to false for the paper-literal predicate.
  bool joint_complement = true;

  /// After the pairwise pass, flag nodes in a mutual frequent
  /// mostly-positive rating relationship with an already-flagged colluder
  /// (fixpoint). Needed to catch compromised pretrusted nodes, whose good
  /// service erases the C2 evidence (paper Fig. 11; see
  /// detect/accomplice_exchange.h).
  bool flag_accomplices = true;

  // --- Ring detection (detect::RingDetector; ignored by the pairwise
  // detectors) ---

  /// Smallest strongly-connected boost cycle reported as a ring. 3 by
  /// construction: 2-cycles are exactly the pairwise detectors' domain,
  /// so excluding them keeps ring reports disjoint from pair reports and
  /// pair-only traces free of ring flags.
  std::uint32_t ring_size_min = 3;

  /// Minimum per-edge rating count for a boost edge to survive the ring
  /// peel. 0 (the default) means "use frequency_min" — the paper's T_N —
  /// so the effective internal threshold is
  /// max(frequency_min, ring_internal_frequency_min).
  std::uint32_t ring_internal_frequency_min = 0;

  /// Gate each candidate ring on the joint complement (C2): the fraction
  /// of positive ratings its members received from NON-members must stay
  /// <= complement_fraction_max. Mirrors the group detector's
  /// component-level C2 and keeps organically popular cliques out.
  bool ring_outside_check = true;

  /// Use inclusive bounds in Formula (2) (upper >= R >= lower). The paper
  /// states strict inequalities, but at the boundary a = 1, N_i = N_(i,j)
  /// (partner-only, all-positive ratings) the strict upper bound
  /// degenerates and misses the most blatant colluders; inclusive bounds
  /// avoid that while admitting only the measure-zero boundary.
  bool inclusive_bounds = true;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return positive_fraction_min > 0.0 && positive_fraction_min <= 1.0 &&
           complement_fraction_max >= 0.0 && complement_fraction_max < 1.0 &&
           frequency_min > 0;
  }
};

}  // namespace p2prep::core
