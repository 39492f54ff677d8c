#include "detect/ring_detector.h"

#include <algorithm>

#include "core/predicates.h"
#include "detect/accomplice_exchange.h"

namespace p2prep::detect {

namespace {

constexpr std::uint64_t edge_key(rating::NodeId u, rating::NodeId v) noexcept {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Iterative Tarjan SCC over a graph given as sorted adjacency lists.
/// Returns the components as index lists; deterministic for a given
/// (nodes, adj) input because traversal follows the sorted order.
class TarjanScc {
 public:
  explicit TarjanScc(const std::vector<std::vector<std::uint32_t>>& adj)
      : adj_(adj),
        index_(adj.size(), kUnvisited),
        lowlink_(adj.size(), 0),
        on_stack_(adj.size(), 0) {}

  [[nodiscard]] std::vector<std::vector<std::uint32_t>> run() {
    for (std::uint32_t v = 0; v < adj_.size(); ++v) {
      if (index_[v] == kUnvisited) strongconnect(v);
    }
    return std::move(components_);
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~0u;

  struct Frame {
    std::uint32_t node;
    std::uint32_t next_child = 0;  // position in adj_[node]
  };

  void strongconnect(std::uint32_t root) {
    frames_.push_back({root});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const std::uint32_t v = f.node;
      if (f.next_child == 0) {  // first visit
        index_[v] = lowlink_[v] = next_index_++;
        stack_.push_back(v);
        on_stack_[v] = 1;
      }
      bool descended = false;
      while (f.next_child < adj_[v].size()) {
        const std::uint32_t w = adj_[v][f.next_child++];
        if (index_[w] == kUnvisited) {
          frames_.push_back({w});
          descended = true;
          break;
        }
        if (on_stack_[w]) lowlink_[v] = std::min(lowlink_[v], index_[w]);
      }
      if (descended) continue;
      // v is finished: pop its component if it is a root, then propagate
      // the lowlink to the parent frame.
      if (lowlink_[v] == index_[v]) {
        std::vector<std::uint32_t> comp;
        for (;;) {
          const std::uint32_t w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = 0;
          comp.push_back(w);
          if (w == v) break;
        }
        components_.push_back(std::move(comp));
      }
      frames_.pop_back();
      if (!frames_.empty()) {
        const std::uint32_t parent = frames_.back().node;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }

  const std::vector<std::vector<std::uint32_t>>& adj_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> lowlink_;
  std::vector<std::uint8_t> on_stack_;
  std::vector<std::uint32_t> stack_;
  std::vector<Frame> frames_;
  std::vector<std::vector<std::uint32_t>> components_;
  std::uint32_t next_index_ = 0;
};

}  // namespace

std::uint32_t RingDetector::ring_frequency() const noexcept {
  return std::max(config_.frequency_min, config_.ring_internal_frequency_min);
}

bool RingDetector::edge_qualifies(
    const rating::PairStats& stats) const noexcept {
  return stats.total >= ring_frequency() &&
         core::positive_fraction_ok(stats, config_);
}

void RingDetector::rebuild_edges(const EpochSnapshot& snapshot,
                                 util::CostCounter& cost) {
  edges_.clear();
  // Range-partitioned rebuild: each (matrix, row-range) pair is one task
  // collecting its qualifying edges locally; the merge inserts them
  // sequentially. Cells are disjoint across tasks (a cell lives in one
  // row of one matrix), so the merged edge set — and everything Tarjan
  // derives from it — is identical to the serial scan for any task count.
  struct RangeTask {
    const rating::RatingMatrix* matrix = nullptr;
    rating::NodeId begin = 0;
    rating::NodeId end = 0;
  };
  const std::size_t per_matrix =
      snapshot.executor == nullptr
          ? 1
          : std::max<std::size_t>(1, snapshot.executor->concurrency());
  std::vector<RangeTask> tasks;
  for (const rating::RatingMatrix* matrix : snapshot.matrices) {
    const std::size_t n = matrix->size();
    const std::size_t chunk =
        std::max<std::size_t>(1, (n + per_matrix - 1) / per_matrix);
    for (std::size_t b = 0; b < n; b += chunk) {
      tasks.push_back({matrix, static_cast<rating::NodeId>(b),
                       static_cast<rating::NodeId>(std::min(n, b + chunk))});
    }
  }
  std::vector<std::vector<std::pair<std::uint64_t, rating::PairStats>>>
      found(tasks.size());
  std::vector<std::uint64_t> scanned(tasks.size(), 0);
  run_tasks(snapshot.executor, tasks.size(), [&](std::size_t t) {
    const RangeTask& task = tasks[t];
    task.matrix->for_each_nonzero_cell_in_rows(
        task.begin, task.end,
        [&](rating::NodeId i, rating::NodeId k,
            const rating::PairStats& stats) {
          ++scanned[t];
          if (edge_qualifies(stats)) found[t].push_back({edge_key(k, i),
                                                         stats});
        });
  });
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    cost.add_scan(scanned[t]);
    cost.add_check(scanned[t]);
    for (const auto& [key, stats] : found[t]) edges_[key] = stats;
  }
}

void RingDetector::apply_dirty(const EpochSnapshot& snapshot,
                               util::CostCounter& cost) {
  for (std::size_t m = 0; m < snapshot.dirty.size(); ++m) {
    const rating::RatingMatrix& matrix = *snapshot.matrices[m];
    for (const auto& [ratee, rater] : snapshot.dirty[m].cells) {
      cost.add_scan();
      cost.add_check();
      const rating::PairStats& stats = matrix.cell(ratee, rater);
      const std::uint64_t key = edge_key(rater, ratee);
      if (edge_qualifies(stats)) {
        edges_[key] = stats;
      } else {
        edges_.erase(key);
      }
    }
  }
}

void RingDetector::find_rings(const EpochSnapshot& snapshot,
                              core::DetectionReport& report) const {
  if (edges_.empty()) return;

  // Compact the edge endpoints into dense indices, sorted by node id, so
  // the SCC traversal (and therefore everything downstream) is
  // deterministic regardless of hash-map iteration order.
  std::vector<rating::NodeId> nodes;
  nodes.reserve(edges_.size());
  for (const auto& [key, stats] : edges_) {
    nodes.push_back(static_cast<rating::NodeId>(key >> 32));
    nodes.push_back(static_cast<rating::NodeId>(key & 0xffffffffu));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const auto index_of = [&nodes](rating::NodeId id) {
    return static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), id) - nodes.begin());
  };

  std::vector<std::vector<std::uint32_t>> adj(nodes.size());
  for (const auto& [key, stats] : edges_) {
    adj[index_of(static_cast<rating::NodeId>(key >> 32))].push_back(
        index_of(static_cast<rating::NodeId>(key & 0xffffffffu)));
  }
  for (auto& successors : adj) {
    std::sort(successors.begin(), successors.end());
  }

  for (const auto& comp : TarjanScc(adj).run()) {
    if (comp.size() < config_.ring_size_min) continue;
    core::RingEvidence ev;
    ev.members.reserve(comp.size());
    for (std::uint32_t idx : comp) ev.members.push_back(nodes[idx]);
    std::sort(ev.members.begin(), ev.members.end());

    // Internal aggregates over the component's boost edges.
    rating::PairStats inside;
    std::uint32_t min_freq = 0;
    for (rating::NodeId u : ev.members) {
      for (rating::NodeId v : ev.members) {
        if (u == v) continue;
        report.cost.add_check();
        const auto it = edges_.find(edge_key(u, v));
        if (it == edges_.end()) continue;
        inside += it->second;
        min_freq =
            min_freq == 0 ? it->second.total : std::min(min_freq,
                                                        it->second.total);
      }
    }
    ev.internal_ratings = inside.total;
    ev.internal_positive_fraction = inside.positive_fraction();
    ev.min_internal_frequency = min_freq;

    // Joint complement (C2 over the member set): everything the members
    // received minus what they received from each other — including
    // sub-threshold member-to-member cells, which are still not "outside"
    // opinion. Read fresh from the owner matrices.
    rating::PairStats outside;
    for (rating::NodeId m : ev.members) {
      const rating::RatingMatrix& matrix = snapshot.matrix_of(m);
      outside += matrix.totals(m);
      for (rating::NodeId o : ev.members) {
        if (o == m) continue;
        report.cost.add_scan();
        outside -= matrix.cell(m, o);
      }
    }
    ev.outside_ratings = outside.total;
    ev.outside_positive_fraction = outside.positive_fraction();
    report.cost.add_check();
    if (config_.ring_outside_check && !core::complement_ok(outside, config_))
      continue;

    report.rings.push_back(std::move(ev));
  }
}

core::DetectionReport RingDetector::on_epoch(const EpochSnapshot& snapshot) {
  const ScanTimer timer(stats_);
  snapshot.check_owners();
  core::DetectionReport report;

  const bool incremental =
      primed_for_ == snapshot.matrices.size() && primed_for_ > 0 &&
      snapshot.dirty.size() == snapshot.matrices.size() &&
      std::all_of(snapshot.dirty.begin(), snapshot.dirty.end(),
                  [](const rating::DirtyCells& d) { return d.complete; });
  if (incremental) {
    apply_dirty(snapshot, report.cost);
  } else {
    rebuild_edges(snapshot, report.cost);
  }
  primed_for_ = snapshot.matrices.size();

  find_rings(snapshot, report);

  // Ring members seed accomplice propagation exactly like flagged pairs.
  // The flagged-set exchange resolves each pair direction from its owner
  // matrix, so the fixpoint spans any shard count (and reduces to the
  // single-matrix walk on one matrix).
  stats_.accomplice_rounds =
      detect::propagate_accomplices(snapshot, config_, report);
  report.canonicalize();

  stats_.incremental = incremental;
  record_rings(report);
  return report;
}

}  // namespace p2prep::detect
