// Seeded rating streams: zipf-skewed organic traffic among honest nodes,
// with planted colluding pairs exchanging frequent positive ratings (the
// paper's Fig. 3 signature), T_N per direction at the default detector
// thresholds. The generator records, for every planted
// pair, the stream position of the rating that first gives the pair T_N
// ratings in both directions — the start of its time-to-detection.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "rating/types.h"

namespace perfbench {

struct StreamSpec {
  std::size_t nodes = 0;
  std::size_t pairs = 0;
  std::size_t ratings = 0;     ///< Stream length, boosts included.
  /// Crossings are stratified over [crossing_lo, crossing_hi) * ratings,
  /// so every seed spreads them over the stream the same way.
  double crossing_lo = 0.05;
  double crossing_hi = 0.95;
  /// Stream positions over which one pair's boosts are spread.
  std::size_t boost_window = 4096;
};

struct Stream {
  std::vector<p2prep::rating::Rating> ratings;  ///< ratings[i].time == i.
  std::vector<std::pair<p2prep::rating::NodeId, p2prep::rating::NodeId>> pairs;
  /// Stream index of each pair's crossing rating.
  std::vector<std::size_t> crossing;
  /// pair_at[i] = pair whose crossing rating is ratings[i], else -1.
  std::vector<std::int32_t> pair_at;
  /// Every planted pair member, ascending.
  std::vector<p2prep::rating::NodeId> colluders;
  std::size_t nodes = 0;
};

[[nodiscard]] Stream make_stream(const StreamSpec& spec, std::uint64_t seed);

}  // namespace perfbench
