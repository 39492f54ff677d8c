// Test-only helper: builds RatingMatrix scenarios declaratively.
#pragma once

#include <cstddef>
#include <vector>

#include "rating/matrix.h"
#include "rating/types.h"

namespace p2prep::core::testing {

class Scenario {
 public:
  explicit Scenario(std::size_t n) : reps_(n, 0.0) {}

  /// `rater` rates `ratee` `count` times with the given score. A
  /// self-rating is dropped: the paper's model has no such channel.
  Scenario& rate(rating::NodeId rater, rating::NodeId ratee,
                 std::size_t count, rating::Score score) {
    if (rater == ratee) return *this;
    for (std::size_t k = 0; k < count; ++k) {
      ratings_.push_back({.rater = rater, .ratee = ratee, .score = score,
                          .time = static_cast<rating::Tick>(k)});
    }
    return *this;
  }

  /// Mutual positive bombardment — the collusion signature.
  Scenario& collude(rating::NodeId a, rating::NodeId b, std::size_t count) {
    rate(a, b, count, rating::Score::kPositive);
    rate(b, a, count, rating::Score::kPositive);
    return *this;
  }

  /// `raters` in [lo, hi) each rate `ratee` once; a fraction `positive` of
  /// them positively, the rest negatively (deterministic split).
  Scenario& crowd(rating::NodeId lo, rating::NodeId hi, rating::NodeId ratee,
                  double positive_fraction) {
    std::size_t index = 0;
    const auto span = static_cast<std::size_t>(hi - lo);
    const auto positives =
        static_cast<std::size_t>(positive_fraction * static_cast<double>(span));
    for (rating::NodeId r = lo; r < hi; ++r, ++index) {
      if (r == ratee) continue;
      rate(r, ratee, 1,
           index < positives ? rating::Score::kPositive
                             : rating::Score::kNegative);
    }
    return *this;
  }

  Scenario& set_rep(rating::NodeId id, double rep) {
    reps_.at(id) = rep;
    return *this;
  }

  Scenario& set_all_reps(double rep) {
    for (auto& r : reps_) r = rep;
    return *this;
  }

  /// The scenario's window as a full-row matrix, node i high-reputed when
  /// its reputation exceeds `high_rep_threshold`.
  [[nodiscard]] rating::RatingMatrix build(double high_rep_threshold = 0.05)
      const {
    rating::RatingMatrix m(reps_.size());
    for (const rating::Rating& r : ratings_)
      m.add_rating(r.ratee, r.rater, r.score);
    for (rating::NodeId i = 0; i < reps_.size(); ++i)
      m.set_global_reputation(i, reps_[i], high_rep_threshold);
    return m;
  }

 private:
  std::vector<rating::Rating> ratings_;
  std::vector<double> reps_;
};

}  // namespace p2prep::core::testing
