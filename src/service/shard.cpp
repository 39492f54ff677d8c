#include "service/shard.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace p2prep::service {

namespace {
// Shards publish raw summation sums: they are meaningful per shard, while
// normalized values would only compare within one shard's partition.
constexpr bool kNormalize = false;

/// `map`'s row index, after checking that shard `index` of `config` is
/// one of its shards.
const std::shared_ptr<const rating::RowIndex>& row_index_of(
    std::size_t index, const ServiceConfig& config, const ShardMap& map) {
  if (index >= map.num_shards() || map.num_nodes() != config.num_nodes)
    throw std::invalid_argument("service shard: not a shard of this map");
  return map.row_index();
}

/// Loads `ckpt`'s engine blob, if any, into `engine`. Throws
/// std::runtime_error on a blob that does not load (one sized for another
/// node count, or one with a non-zero sum for a node the shard does not
/// own, included); `engine` is then unchanged.
void load_engine(reputation::SummationEngine& engine,
                 const ShardCheckpoint& ckpt) {
  if (ckpt.engine_blob.empty()) return;
  std::istringstream blob(ckpt.engine_blob);
  if (!engine.load_state(blob))
    throw std::runtime_error("shard restore: malformed engine state");
}
}  // namespace

std::string format_epoch_report(const std::string& label, std::uint64_t epoch,
                                const core::DetectionReport& report) {
  std::ostringstream os;
  os << "epoch " << epoch << ' ' << label << ": pairs=" << report.pairs.size()
     << " rings=" << report.rings.size() << " flagged=[";
  const auto flagged = report.colluders();
  for (std::size_t i = 0; i < flagged.size(); ++i) {
    if (i) os << ' ';
    os << flagged[i];
  }
  os << "]\n";
  for (const auto& ev : report.pairs) os << "  " << ev.to_string() << '\n';
  for (const auto& ev : report.rings) os << "  " << ev.to_string() << '\n';
  return os.str();
}

ServiceShard::ServiceShard(std::size_t index, const ServiceConfig& config,
                           const ShardMap& map)
    : index_(index),
      config_(&config),
      map_num_shards_(static_cast<std::uint32_t>(map.num_shards())),
      row_index_(row_index_of(index, config, map)),
      engine_(row_index_, part(), kNormalize) {
  reset_manager();
  matrix_bytes_.store(manager_->matrix().approx_memory_bytes(),
                      std::memory_order_relaxed);
}

ServiceShard::ServiceShard(std::size_t index, const ServiceConfig& config)
    : ServiceShard(index, config,
                   ShardMap(config.num_shards, config.num_nodes)) {}

void ServiceShard::set_shard_map_stamp(std::uint64_t map_epoch,
                                       const ShardMap& map) {
  map_epoch_ = map_epoch;
  map_num_shards_ = static_cast<std::uint32_t>(map.num_shards());
  if (map.row_index() == row_index_) return;
  row_index_ = map.row_index();
  engine_.repartition(row_index_);
  manager_->repartition(row_index_);
}

void ServiceShard::attach_wal(WalWriter writer) {
  wal_.emplace(std::move(writer));
  wal_records_.store(wal_->records(), std::memory_order_relaxed);
  wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
}

void ServiceShard::stage_record(const WalRecord& rec) {
  if (!wal_) return;
  append_wal_frame(wal_run_, rec);
  ++wal_run_records_;
  if (wal_run_.size() >= kWalRunBytes) flush_wal();
}

void ServiceShard::flush_wal() {
  if (wal_run_records_ == 0) return;
  wal_->append_frames(wal_run_, wal_run_records_);
  wal_run_.clear();  // keeps its capacity: no allocation per run
  wal_run_records_ = 0;
  wal_records_.store(wal_->records(), std::memory_order_relaxed);
  wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
}

void ServiceShard::log_record(const WalRecord& rec) {
  stage_record(rec);
  flush_wal();
}

bool ServiceShard::apply_rating(const rating::Rating& r) {
  if (!manager_->ingest(r)) return false;
  applied_total_.fetch_add(1, std::memory_order_relaxed);
  ++applied_since_epoch_;
  last_applied_tick_ = std::max(last_applied_tick_, r.time);
  return true;
}

void ServiceShard::commit_epoch(std::uint64_t epoch_seq,
                                const std::vector<rating::NodeId>& flagged) {
  manager_->apply_verdicts(flagged);
  close_epoch(epoch_seq);
}

void ServiceShard::close_epoch(std::uint64_t epoch) {
  epochs_completed_.store(epoch, std::memory_order_relaxed);
  applied_since_epoch_ = 0;
  last_epoch_tick_ = last_applied_tick_;
  // Epoch boundaries are the only points where no worker is mutating the
  // matrix, so this is where the footprint gauge refreshes.
  matrix_bytes_.store(manager_->matrix().approx_memory_bytes(),
                      std::memory_order_relaxed);
}

std::optional<ShardCheckpoint> ServiceShard::make_checkpoint() const {
  ShardCheckpoint ckpt;
  std::ostringstream blob;
  if (!engine_.save_state(blob)) return std::nullopt;
  ckpt.engine_blob = blob.str();

  ckpt.wal_generation = wal_ ? wal_->generation() : 0;
  ckpt.wal_records_applied = wal_ ? wal_->records() : 0;
  ckpt.map_epoch = map_epoch_;
  ckpt.map_num_shards = map_num_shards_;
  ckpt.epochs_completed = epochs_completed_.load(std::memory_order_relaxed);
  ckpt.applied_total = applied_total_.load(std::memory_order_relaxed);
  ckpt.applied_since_epoch = applied_since_epoch_;
  ckpt.last_epoch_tick = last_epoch_tick_;

  ckpt.suppressed.assign(engine_.suppressed_set().begin(),
                         engine_.suppressed_set().end());
  std::sort(ckpt.suppressed.begin(), ckpt.suppressed.end());
  ckpt.detected.assign(manager_->detected().begin(),
                       manager_->detected().end());
  std::sort(ckpt.detected.begin(), ckpt.detected.end());

  const auto& matrix = manager_->matrix();
  for (const rating::NodeId i : matrix.owned_nodes()) {
    if (matrix.totals(i).total == 0) continue;
    // Ascending-rater enumeration, so checkpoint files are byte-identical
    // for the same cells whatever order they were written in.
    matrix.for_each_nonzero_cell(
        i, [&ckpt, i](rating::NodeId k, const rating::PairStats& stats) {
          ckpt.cells.push_back({i, k, stats});
        });
  }
  return ckpt;
}

bool ServiceShard::checkpoint_and_rotate(const std::string& ckpt_path) {
  // Markers and fences write the staged run, and checkpoints only happen
  // behind one, so the checkpoint's record count covers the whole file.
  assert(wal_run_records_ == 0);
  const auto ckpt = make_checkpoint();
  if (!ckpt) return false;
  if (!write_checkpoint(ckpt_path, *ckpt)) return false;
  if (wal_) {
    // Rotate with the current map stamp so a post-resize rotation writes
    // the new map's header (this is the resize commit point).
    wal_->rotate(map_epoch_, map_num_shards_);
    wal_records_.store(wal_->records(), std::memory_order_relaxed);
    wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
  }
  return true;
}

ServiceShard::NodeTransfer ServiceShard::take_node(rating::NodeId id) {
  NodeTransfer t;
  t.id = id;
  t.cells = manager_->take_window_row(id);
  t.raw_sum = engine_.take_raw_sum(id);
  t.suppressed = engine_.is_suppressed(id);
  if (t.suppressed) engine_.unsuppress(id);
  t.detected = manager_->take_detected(id);
  return t;
}

void ServiceShard::restore_node(const NodeTransfer& t) {
  manager_->reserve_window_row(t.id, t.cells.size());
  for (const auto& [rater, stats] : t.cells)
    manager_->restore_window_cell(t.id, rater, stats);
  engine_.restore_raw_sum(t.id, t.raw_sum);
  if (t.suppressed) engine_.suppress(t.id);
  if (t.detected) manager_->restore_detected({t.id});
  // The node's host meta follows its sum, so the row reads here as it
  // read on the shard it left.
  manager_->refresh_reputation(t.id);
}

void ServiceShard::check_ids(const ShardCheckpoint& ckpt) const {
  const std::size_t n = config_->num_nodes;
  const auto out_of_range = [n](rating::NodeId id) { return id >= n; };
  if (std::any_of(ckpt.suppressed.begin(), ckpt.suppressed.end(),
                  out_of_range) ||
      std::any_of(ckpt.detected.begin(), ckpt.detected.end(), out_of_range) ||
      std::any_of(ckpt.cells.begin(), ckpt.cells.end(),
                  [n](const CheckpointCell& c) {
                    return c.ratee >= n || c.rater >= n;
                  }))
    throw std::runtime_error("shard restore: checkpoint names a node id >= " +
                             std::to_string(n));
  // make_checkpoint writes each cell once, row-major in ascending rater
  // order, and ingest refuses self-ratings. A duplicate cell would store
  // two cells for one rater, and install_checkpoint's per-row reservation
  // assumes the order.
  const auto key = [](const CheckpointCell& c) {
    return std::pair(c.ratee, c.rater);
  };
  if (std::adjacent_find(ckpt.cells.begin(), ckpt.cells.end(),
                         [&key](const CheckpointCell& a,
                                const CheckpointCell& b) {
                           return key(a) >= key(b);
                         }) != ckpt.cells.end())
    throw std::runtime_error(
        "shard restore: checkpoint cells are not strictly ascending by "
        "(ratee, rater)");
  if (std::any_of(ckpt.cells.begin(), ckpt.cells.end(),
                  [](const CheckpointCell& c) { return c.ratee == c.rater; }))
    throw std::runtime_error(
        "shard restore: checkpoint holds a self-rating cell");
  const rating::RatingMatrix& matrix = manager_->matrix();
  if (std::any_of(ckpt.cells.begin(), ckpt.cells.end(),
                  [&matrix](const CheckpointCell& c) {
                    return !matrix.owns(c.ratee);
                  }))
    throw std::runtime_error(
        "shard restore: checkpoint holds a row of a node shard " +
        std::to_string(index_) + " does not own");
}

void ServiceShard::restore(const ShardCheckpoint& ckpt) {
  check_ids(ckpt);
  load_engine(engine_, ckpt);
  install_checkpoint(ckpt);
}

void ServiceShard::install_checkpoint(const ShardCheckpoint& ckpt) {
  engine_.restore_suppressed(ckpt.suppressed);
  manager_->restore_detected(ckpt.detected);
  // Cells are row-major: size each row for its run before replaying it.
  const std::vector<CheckpointCell>& cells = ckpt.cells;
  for (std::size_t begin = 0; begin < cells.size();) {
    std::size_t end = begin;
    while (end < cells.size() && cells[end].ratee == cells[begin].ratee)
      ++end;
    manager_->reserve_window_row(cells[begin].ratee, end - begin);
    for (; begin < end; ++begin)
      manager_->restore_window_cell(cells[begin].ratee, cells[begin].rater,
                                    cells[begin].stats);
  }
  applied_total_.store(ckpt.applied_total, std::memory_order_relaxed);
  applied_since_epoch_ = ckpt.applied_since_epoch;
  last_epoch_tick_ = ckpt.last_epoch_tick;
  last_applied_tick_ = ckpt.last_epoch_tick;
  epochs_completed_.store(ckpt.epochs_completed, std::memory_order_relaxed);

  // Republish: engine epoch re-derives the published vector (idempotent
  // for the summation engine) and refreshes the matrix reputation column.
  manager_->update_reputations();
  matrix_bytes_.store(manager_->matrix().approx_memory_bytes(),
                      std::memory_order_relaxed);
}

void ServiceShard::reload_from(const ShardCheckpoint& ckpt) {
  // Both refusals (an out-of-range id, an engine blob that does not load)
  // come before any state is touched. The loaded engine moves in by
  // assignment, because the manager holds a reference to engine_; the
  // manager is then replaced wholesale for an empty matrix.
  check_ids(ckpt);
  reputation::SummationEngine engine(row_index_, part(), kNormalize);
  load_engine(engine, ckpt);
  engine_ = std::move(engine);
  reset_manager();
  install_checkpoint(ckpt);
}

void ServiceShard::reset_manager() {
  manager_ = std::make_unique<managers::CentralizedManager>(
      row_index_, part(), engine_, config_->detector_config);
}

}  // namespace p2prep::service
