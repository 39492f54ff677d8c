// Marketplace audit scenario (the paper's Sec. III study): given a year of
// five-star transaction ratings from an online marketplace, find the
// sellers whose reputations look bought.
//
// The pipeline: generate a synthetic Amazon-style trace (a substitute for
// the paper's crawl — see DESIGN.md), run the suspicious-pair filter and
// per-rater frequency analysis, then feed the ratings (mapped to -1/0/+1)
// through the collusion detector used for P2P networks and compare what
// each approach flags against the generator's ground truth.
//
//   ./build/examples/marketplace_audit
#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "core/predicates.h"
#include "rating/matrix.h"
#include "trace/amazon.h"
#include "trace/analysis.h"
#include "util/table.h"

int main() {
  using namespace p2prep;

  trace::AmazonTraceConfig config;
  config.num_sellers = 60;
  config.num_buyers = 8000;
  config.num_suspicious_sellers = 10;
  const trace::AmazonTrace tr = trace::generate_amazon_trace(config);
  std::printf("audit input: %zu ratings across %zu sellers over %zu days\n\n",
              tr.ratings.size(), tr.num_sellers, tr.days);

  // --- Approach 1: the paper's Sec. III statistical filter ---
  const auto summary = trace::find_suspicious(tr.ratings, 20);
  std::unordered_set<trace::UserId> filter_flagged(summary.sellers.begin(),
                                                   summary.sellers.end());

  // --- Approach 2: the collusion detector over +/-1 mapped ratings ---
  // Detection needs bidirectional frequency in the general P2P model; in a
  // marketplace only buyers rate, so we use the one-directional variant:
  // flag (rater, seller) pairs where the rater is frequent and almost
  // exclusively positive while the seller's remaining raters are ordinary.
  const std::size_t id_space = config.num_sellers + config.num_buyers + 4096;
  rating::RatingMatrix matrix(id_space);
  for (const trace::MarketplaceRating& r : tr.ratings)
    matrix.add_rating(r.ratee, r.rater, rating::score_from_stars(r.stars));
  std::unordered_set<trace::UserId> detector_flagged;
  core::DetectorConfig dc;  // trace-calibrated defaults (T_a=0.8, T_b=0.2)
  for (trace::UserId seller = 0; seller < config.num_sellers; ++seller) {
    matrix.for_each_nonzero_cell(
        seller, [&](rating::NodeId, const rating::PairStats& pair) {
          if (!core::frequency_ok(pair, dc)) return;
          if (!core::positive_fraction_ok(pair, dc)) return;
          // Complement: the seller's other raters must look ordinary —
          // for a marketplace that means clearly *less* positive than the
          // campaign, not mostly negative (honest stores have b ~ 0.9).
          const auto complement = matrix.totals(seller) - pair;
          if (complement.total == 0 ||
              complement.positive_fraction() <
                  pair.positive_fraction() - 0.02) {
            detector_flagged.insert(seller);
          }
        });
  }

  // --- Compare against ground truth ---
  std::unordered_set<trace::UserId> truth(tr.truth.suspicious_sellers.begin(),
                                          tr.truth.suspicious_sellers.end());
  auto score = [&](const std::unordered_set<trace::UserId>& flagged) {
    std::size_t hits = 0;
    for (trace::UserId s : flagged)
      if (truth.contains(s)) ++hits;
    return std::pair{hits, flagged.size() - hits};
  };
  const auto [filter_hits, filter_fp] = score(filter_flagged);
  const auto [det_hits, det_fp] = score(detector_flagged);

  util::Table table({"approach", "flagged", "true positives",
                     "false positives", "recall"});
  auto recall = [&](std::size_t hits) {
    return truth.empty() ? 1.0
                         : static_cast<double>(hits) /
                               static_cast<double>(truth.size());
  };
  table.add_row({"frequent-pair filter (Sec. III)",
                 util::Table::num(static_cast<std::uint64_t>(
                     filter_flagged.size())),
                 util::Table::num(static_cast<std::uint64_t>(filter_hits)),
                 util::Table::num(static_cast<std::uint64_t>(filter_fp)),
                 util::Table::num(recall(filter_hits), 2)});
  table.add_row({"collusion detector (Sec. IV)",
                 util::Table::num(static_cast<std::uint64_t>(
                     detector_flagged.size())),
                 util::Table::num(static_cast<std::uint64_t>(det_hits)),
                 util::Table::num(static_cast<std::uint64_t>(det_fp)),
                 util::Table::num(recall(det_hits), 2)});
  std::printf("%s\n", table.render().c_str());

  std::printf("ground-truth suspicious sellers:");
  for (trace::UserId s : tr.truth.suspicious_sellers) std::printf(" %u", s);
  std::printf("\n");
  return 0;
}
