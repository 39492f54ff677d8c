#include "stream.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/config.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace perfbench {

using namespace p2prep;

namespace {

/// T_N of the default detector: boosts per direction per pair.
constexpr std::uint32_t kTn = core::DetectorConfig{}.frequency_min;
/// Share of organic ratings aimed at a colluder. They are never positive,
/// so a colluder's ratings from outside its pair stay below T_b.
constexpr double kColluderVictimFrac = 0.005;

struct Event {
  double key;       ///< Stream order.
  std::int32_t pair;  ///< Crossing rating of this pair, else -1.
  rating::Rating r;
};

}  // namespace

Stream make_stream(const StreamSpec& spec, std::uint64_t seed) {
  const std::size_t boosts = spec.pairs * 2 * kTn;
  if (spec.nodes < 2 * spec.pairs + 16 || spec.ratings <= boosts)
    throw std::invalid_argument("stream spec too small for its pairs");
  util::Rng rng(util::mix64(seed));

  // A seeded shuffle decides which ids collude and which honest id each
  // zipf rank lands on, so hot nodes spread across shards.
  std::vector<rating::NodeId> ids(spec.nodes);
  std::iota(ids.begin(), ids.end(), 0);
  for (std::size_t i = ids.size() - 1; i > 0; --i)
    std::swap(ids[i], ids[rng.next_below(i + 1)]);
  const std::vector<rating::NodeId> colluders(
      ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(2 * spec.pairs));
  const std::vector<rating::NodeId> honest(
      ids.begin() + static_cast<std::ptrdiff_t>(2 * spec.pairs), ids.end());

  Stream s;
  s.nodes = spec.nodes;
  std::vector<Event> events;
  events.reserve(spec.ratings);

  const std::size_t organic = spec.ratings - boosts;
  const double step =
      static_cast<double>(spec.ratings) / static_cast<double>(organic);
  for (std::size_t e = 0; e < organic; ++e) {
    const std::size_t rater_rank = util::zipf(rng, honest.size());
    rating::Rating r;
    r.rater = honest[rater_rank];
    if (rng.chance(kColluderVictimFrac)) {
      r.ratee = colluders[rng.next_below(colluders.size())];
      r.score = rng.chance(0.9) ? rating::Score::kNegative
                                : rating::Score::kNeutral;
    } else {
      std::size_t rank = util::zipf(rng, honest.size(), 0.8);
      if (rank == rater_rank) rank = (rank + 1) % honest.size();
      r.ratee = honest[rank];
      if (rng.chance(0.85))
        r.score = rating::Score::kPositive;
      else
        r.score = rng.chance(0.33) ? rating::Score::kNeutral
                                   : rating::Score::kNegative;
    }
    events.push_back({static_cast<double>(e) * step, -1, r});
  }

  const auto len = static_cast<double>(spec.ratings);
  const auto window = static_cast<double>(spec.boost_window);
  for (std::size_t p = 0; p < spec.pairs; ++p) {
    const rating::NodeId a = colluders[2 * p];
    const rating::NodeId b = colluders[2 * p + 1];
    s.pairs.emplace_back(a, b);
    // Stratified crossing point: pair p owns one slice of the range.
    const double frac =
        spec.crossing_lo + (spec.crossing_hi - spec.crossing_lo) *
                               (static_cast<double>(p) + rng.next_double()) /
                               static_cast<double>(spec.pairs);
    const double cross = frac * len;
    // The crossing rating is the pair's last boost; before it, T_N - 1
    // boosts go its way and T_N the other, so it completes both.
    const bool last_ab = rng.chance(0.5);
    std::vector<bool> dirs(2 * kTn - 1, !last_ab);
    for (std::uint32_t k = 0; k + 1 < kTn; ++k) dirs[k] = last_ab;
    for (std::size_t k = dirs.size() - 1; k > 0; --k) {
      const auto j = rng.next_below(k + 1);
      const bool tmp = dirs[k];
      dirs[k] = dirs[j];
      dirs[j] = tmp;
    }
    auto boost = [&](bool ab, double key, std::int32_t pair) {
      rating::Rating r;
      r.rater = ab ? a : b;
      r.ratee = ab ? b : a;
      r.score = rating::Score::kPositive;
      events.push_back({key, pair, r});
    };
    for (const bool ab : dirs)
      boost(ab, std::max(0.0, cross - window * rng.next_double()), -1);
    boost(last_ab, cross, static_cast<std::int32_t>(p));
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) { return x.key < y.key; });
  s.ratings.reserve(events.size());
  s.pair_at.assign(events.size(), -1);
  s.crossing.assign(spec.pairs, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    rating::Rating r = events[i].r;
    r.time = i;
    s.ratings.push_back(r);
    if (events[i].pair >= 0) {
      s.pair_at[i] = events[i].pair;
      s.crossing[static_cast<std::size_t>(events[i].pair)] = i;
    }
  }
  s.colluders = colluders;
  std::sort(s.colluders.begin(), s.colluders.end());
  return s;
}

}  // namespace perfbench
