#include "service/service.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "detect/registry.h"

namespace p2prep::service {

ReputationService::ReputationService(ServiceConfig config)
    : config_(std::move(config)) {
  if (!config_.valid())
    throw std::invalid_argument("service: invalid ServiceConfig");

  if (config_.cluster) {
    // Decentralized-manager mode: shard state lives in the manager
    // cluster; the local shards are per-epoch working copies refreshed by
    // pull. Constraints follow from that shape — durability belongs to the
    // managers, and reload_from() resets the virtual-time trigger state,
    // so the cadence must be rating-count based.
    if (!config_.wal_dir.empty())
      throw std::invalid_argument(
          "service: cluster mode is incompatible with a local wal_dir "
          "(the managers own durability)");
    if (config_.detector != "basic" && config_.detector != "optimized")
      throw std::invalid_argument(
          "service: cluster mode supports detectors 'basic' and "
          "'optimized' only");
    if (config_.epoch_ticks != 0 || config_.epoch_ratings == 0)
      throw std::invalid_argument(
          "service: cluster mode requires a rating-count epoch trigger");
    // Checkpointing has nothing local to checkpoint.
    config_.checkpoint_every_epochs = 0;
  }

  // A durable directory that already holds service state decides the live
  // shard layout: recovery adopts the (map_epoch, num_shards) stamped into
  // the stored checkpoints / WAL headers by the most recent committed
  // resize, not config_.num_shards.
  std::size_t live_shards = config_.num_shards;
  std::uint64_t live_epoch = 0;
  std::vector<ShardDurableState> durable;
  bool recovering = false;
  if (!config_.wal_dir.empty()) {
    std::filesystem::create_directories(config_.wal_dir);
    if (std::filesystem::exists(config_.wal_dir + "/service.meta")) {
      check_meta();
      recovering = true;
      durable = read_durable_state();

      bool found_any = false;
      for (const auto& d : durable) {
        const auto consider = [&](std::uint64_t epoch, std::uint32_t shards) {
          if (shards == 0) return;
          if (!found_any || epoch > live_epoch) {
            live_epoch = epoch;
            live_shards = shards;
          }
          found_any = true;
        };
        if (d.ckpt) consider(d.ckpt->map_epoch, d.ckpt->map_num_shards);
        if (d.wal.found) consider(d.wal.map_epoch, d.wal.num_shards);
      }
      // Every file a live shard left behind must carry the winning stamp;
      // a mix means the crash hit the middle of a resize commit, which is
      // not recoverable (checkpoints from two maps describe overlapping
      // state). Files at indices past the live count are shrink leftovers
      // and are cleaned up by recover().
      for (std::size_t s = 0; s < durable.size() && s < live_shards; ++s) {
        const auto& d = durable[s];
        if ((d.ckpt && (d.ckpt->map_epoch != live_epoch ||
                        d.ckpt->map_num_shards != live_shards)) ||
            (d.wal.found && (d.wal.map_epoch != live_epoch ||
                             d.wal.num_shards != live_shards)))
          throw std::runtime_error(
              "service recover: shards disagree on shard map epoch (crash "
              "inside a resize commit)");
      }
      if (live_epoch > 0) {
        for (std::size_t s = 0; s < live_shards; ++s) {
          if (s >= durable.size() ||
              (!durable[s].ckpt && !durable[s].wal.found))
            throw std::runtime_error(
                "service recover: missing durable files for shard " +
                std::to_string(s));
        }
      }
    }
  }

  auto map = std::make_shared<const ShardMap>(live_shards, config_.num_nodes);

  // The coordinator blocks in parallel_for while the pool scans, so the
  // pool gets the whole budget.
  const std::size_t budget =
      config_.epoch_scan_threads != 0
          ? config_.epoch_scan_threads
          : std::min<std::size_t>(
                std::max<std::size_t>(1, std::thread::hardware_concurrency()),
                8);
  epoch_scan_threads_.store(budget, std::memory_order_relaxed);
  if (budget > 1)
    scan_executor_ = std::make_unique<detect::ThreadPoolExecutor>(budget);
  SlotTable table;
  table.map = map;
  table.map_epoch = live_epoch;
  table.slots.reserve(live_shards);
  for (std::size_t s = 0; s < live_shards; ++s) {
    auto slot = std::make_shared<ShardSlot>(s, config_, *map);
    slot->shard.set_shard_map_stamp(live_epoch, *map);
    table.slots.push_back(std::move(slot));
  }
  make_global_detector(table);

  auto table_ptr = std::make_shared<const SlotTable>(std::move(table));
  {
    const util::MutexLock lock(route_mu_);
    routing_ = table_ptr;
  }
  {
    const util::MutexLock lock(applied_mu_);
    applied_ = table_ptr;
  }
  {
    const util::MutexLock lock(epoch_mu_);
    barrier_size_ = live_shards;
    resize_done_epoch_ = live_epoch;
  }

  checkpoints_enabled_.store(config_.checkpoint_every_epochs > 0 &&
                             !config_.wal_dir.empty());

  if (!config_.wal_dir.empty()) {
    if (recovering) {
      recover(std::move(durable), live_epoch);
      recovered_ = true;
    } else {
      write_meta();
      for (std::size_t s = 0; s < table_ptr->slots.size(); ++s)
        table_ptr->slots[s]->shard.attach_wal(WalWriter::create(
            wal_path(s), 0, live_epoch,
            static_cast<std::uint32_t>(live_shards)));
    }
  }

  publish_view(*table_ptr);

  std::uint64_t applied = 0;
  for (const auto& slot : table_ptr->slots)
    applied += slot->shard.applied_total();
  applied_base_ = applied;
  start_time_ = std::chrono::steady_clock::now();

  for (const auto& slot : table_ptr->slots)
    slot->worker = std::thread([this, slot] { worker_loop(slot); });
}

ReputationService::~ReputationService() { stop(); }

// --- Paths and meta --------------------------------------------------------

std::string ReputationService::wal_path(std::size_t shard) const {
  std::ostringstream os;
  os << config_.wal_dir << "/shard-" << std::setw(3) << std::setfill('0')
     << shard << ".wal";
  return os.str();
}

std::string ReputationService::ckpt_path(std::size_t shard) const {
  std::ostringstream os;
  os << config_.wal_dir << "/shard-" << std::setw(3) << std::setfill('0')
     << shard << ".ckpt";
  return os.str();
}

void ReputationService::write_meta() const {
  std::ofstream out(config_.wal_dir + "/service.meta", std::ios::trunc);
  out << "p2prep-service-meta 1\n"
      << "num_nodes " << config_.num_nodes << "\n"
      << "num_shards " << config_.num_shards << "\n"
      << "scope global\n"
      << "detector " << config_.detector << "\n";
  if (!out) throw std::runtime_error("service: cannot write service.meta");
}

void ReputationService::check_meta() const {
  std::ifstream in(config_.wal_dir + "/service.meta");
  std::string magic, version;
  in >> magic >> version;
  if (magic != "p2prep-service-meta" || version != "1")
    throw std::runtime_error("service: unrecognized service.meta");
  std::string key, value;
  auto expect = [&](const std::string& want_key, const std::string& want) {
    if (!(in >> key >> value) || key != want_key || value != want)
      throw std::runtime_error("service: stored state was created with " +
                               key + "=" + value + ", configured " + want_key +
                               "=" + want);
  };
  expect("num_nodes", std::to_string(config_.num_nodes));
  // num_shards records the count the directory was created with; the live
  // count is whatever the stored shard-map stamps say (resize() changes
  // it), so the line is parsed but not enforced.
  if (!(in >> key >> value) || key != "num_shards")
    throw std::runtime_error("service: unrecognized service.meta");
  // Every epoch is global; a directory written under another scope
  // replays a different epoch protocol and is refused.
  expect("scope", "global");
  expect("detector", config_.detector);
}

// --- Recovery --------------------------------------------------------------

std::vector<ReputationService::ShardDurableState>
ReputationService::read_durable_state() const {
  std::vector<ShardDurableState> state;
  std::size_t max_index = 0;
  bool any = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.wal_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const auto dot = name.find('.');
    if (dot == std::string::npos || dot <= 6) continue;
    const std::string digits = name.substr(6, dot - 6);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    max_index = std::max(max_index,
                         static_cast<std::size_t>(std::stoul(digits)));
    any = true;
  }
  if (any) {
    state.resize(max_index + 1);
    for (std::size_t s = 0; s < state.size(); ++s) {
      state[s].ckpt = read_checkpoint(ckpt_path(s));
      state[s].wal = read_wal(wal_path(s));
    }
  }
  return state;
}

void ReputationService::recover(std::vector<ShardDurableState> state,
                                std::uint64_t map_epoch) {
  const auto table = applied_table();
  const auto& slots = table->slots;

  // Files at shard indices the live map no longer covers are leftovers of
  // a committed shrink whose cleanup crashed half-way; finish it.
  for (std::size_t s = slots.size(); s < state.size(); ++s) {
    std::filesystem::remove(wal_path(s));
    std::filesystem::remove(ckpt_path(s));
  }
  state.resize(slots.size());

  struct ShardRecovery {
    WalReadResult wal;
    std::size_t pos = 0;  // next unconsumed record index
    std::uint64_t generation = 0;
    std::uint64_t keep_bytes = kWalHeaderBytes;
    std::uint64_t keep_records = 0;
  };
  std::vector<ShardRecovery> shards(slots.size());

  // Replay runs before the workers are spawned, so it accumulates the
  // router/barrier state in locals and publishes it under the proper
  // locks at the end — keeping the thread-safety contracts checkable.
  std::uint64_t max_epoch = 0;
  std::uint64_t since_epoch = 0;
  // The tick cadence resumes from the checkpoints: each one carries the
  // highest tick its shard applied before the checkpointed epoch's marker,
  // so their maximum is the anchor that marker set.
  rating::Tick max_tick = 0;
  for (const ShardDurableState& shard : state)
    if (shard.ckpt)
      max_tick = std::max(max_tick, shard.ckpt->last_epoch_tick);
  rating::Tick last_epoch_tick = max_tick;

  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& r = shards[s];
    r.wal = std::move(state[s].wal);
    if (state[s].ckpt) slots[s]->shard.restore(*state[s].ckpt);

    // An uncommitted resize leaves its fence marker as the last record
    // (the worker parks right after logging it, and a committed resize
    // rotates the file away). Strip it — that resize never happened as
    // far as durable state is concerned — and reject anything after it.
    for (std::size_t i = 0; i + 1 < r.wal.records.size(); ++i) {
      if (r.wal.records[i].kind == WalRecordKind::kShardMapChange)
        throw std::runtime_error(
            "service recover: records found after a resize fence marker");
    }
    if (!r.wal.records.empty() &&
        r.wal.records.back().kind == WalRecordKind::kShardMapChange) {
      r.wal.records.pop_back();
      r.wal.end_offsets.pop_back();
      r.wal.valid_bytes = r.wal.end_offsets.empty()
                              ? kWalHeaderBytes
                              : r.wal.end_offsets.back();
    }

    const WalResume resume = wal_resume_point(state[s].ckpt, r.wal);
    r.pos = resume.first_record;
    r.generation = resume.generation;
    r.keep_bytes = r.wal.found ? r.wal.valid_bytes : kWalHeaderBytes;
    r.keep_records = r.wal.records.size();
    max_epoch = std::max(max_epoch, slots[s]->shard.epochs_completed());
  }

  for (;;) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      auto& r = shards[s];
      while (r.pos < r.wal.records.size() &&
             r.wal.records[r.pos].kind == WalRecordKind::kRating) {
        slots[s]->shard.apply_rating(r.wal.records[r.pos].rating);
        max_tick = std::max(max_tick, r.wal.records[r.pos].rating.time);
        ++r.pos;
      }
    }
    bool all_at_marker = true;
    for (const auto& r : shards)
      all_at_marker = all_at_marker && r.pos < r.wal.records.size();
    if (!all_at_marker) break;

    const std::uint64_t seq = shards[0].wal.records[shards[0].pos].epoch_seq;
    for (const auto& r : shards) {
      if (r.wal.records[r.pos].epoch_seq != seq)
        throw std::runtime_error(
            "service recover: shards disagree on epoch marker sequence");
    }
    run_global_epoch(seq, /*live=*/false);
    max_epoch = std::max(max_epoch, seq);
    last_epoch_tick = max_tick;
    for (auto& r : shards) ++r.pos;
  }

  // An epoch marker not logged by every shard never ran (workers park at
  // the barrier before the last shard's marker is written), so drop it
  // from the resumed WAL; producers will inject that sequence again.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& r = shards[s];
    if (r.pos >= r.wal.records.size()) continue;
    if (r.pos + 1 < r.wal.records.size())
      throw std::runtime_error(
          "service recover: records found after an unpaired epoch marker");
    r.keep_records = r.pos;
    r.keep_bytes = r.pos > 0 ? r.wal.end_offsets[r.pos - 1] : kWalHeaderBytes;
  }

  for (const auto& slot : slots)
    since_epoch += slot->shard.applied_since_epoch_;

  {
    const util::MutexLock lock(route_mu_);
    epoch_seq_ = max_epoch;
    global_last_epoch_tick_ = last_epoch_tick;
    max_routed_tick_ = max_tick;
    routed_since_epoch_ = since_epoch;
  }
  {
    const util::MutexLock lock(epoch_mu_);
    epoch_done_seq_ = max_epoch;
  }

  const auto num_shards = static_cast<std::uint32_t>(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& r = shards[s];
    if (r.wal.found)
      slots[s]->shard.attach_wal(
          WalWriter::resume(wal_path(s), r.generation, map_epoch, num_shards,
                            r.keep_bytes, r.keep_records));
    else
      slots[s]->shard.attach_wal(
          WalWriter::create(wal_path(s), r.generation, map_epoch, num_shards));
  }
}

// --- Ingest ----------------------------------------------------------------

IngestResult ReputationService::ingest_batch(
    std::span<const rating::Rating> batch, Admission admission) {
  if (stopped_.load(std::memory_order_relaxed))
    return {.stop = IngestResult::Stop::kStopped};
  IngestResult out;
  const auto more = [&](std::size_t k) {
    return k < batch.size() && out.stop == IngestResult::Stop::kNone;
  };
  // The router owns the epoch cadence, so each push and the marker it may
  // make due are one atomic routing step; one route_mu_ hold covers the
  // batch.
  const util::MutexLock lock(route_mu_);
  for (std::size_t k = 0; more(k); ++k)
    if (route_rating(*routing_, batch[k], admission, out))
      routed_rating(batch[k].time);
  return out;
}

bool ReputationService::route_rating(const SlotTable& table,
                                     const rating::Rating& r,
                                     Admission admission, IngestResult& out) {
  using TryPush = IngestQueue<WalRecord>::TryPush;
  if (r.rater == r.ratee || r.rater >= config_.num_nodes ||
      r.ratee >= config_.num_nodes) {
    ++out.rejected;
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  IngestQueue<WalRecord>& queue =
      table.slots[table.map->owner(r.ratee)]->queue;
  const WalRecord rec = WalRecord::make_rating(r);
  const TryPush pushed =
      admission == Admission::kBlock
          ? (queue.push(rec) ? TryPush::kOk : TryPush::kClosed)
          : queue.try_push(rec);
  if (pushed != TryPush::kOk) {
    out.stop = pushed == TryPush::kFull ? IngestResult::Stop::kFull
                                        : IngestResult::Stop::kStopped;
    return false;
  }
  ++out.accepted;
  accepted_.fetch_add(1, std::memory_order_relaxed);
  routed_records_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ReputationService::routed_rating(rating::Tick tick) {
  ++routed_since_epoch_;
  max_routed_tick_ = std::max(max_routed_tick_, tick);
  const bool due =
      (config_.epoch_ratings > 0 &&
       routed_since_epoch_ >= config_.epoch_ratings) ||
      (config_.epoch_ticks > 0 &&
       tick >= global_last_epoch_tick_ + config_.epoch_ticks);
  if (due) inject_marker();
}

std::uint64_t ReputationService::inject_marker() {
  const std::uint64_t seq = ++epoch_seq_;
  // One rule for every marker, whatever made it due, and the one recover()
  // applies when it replays the marker: the tick cadence anchors at the
  // highest tick routed before it.
  routed_since_epoch_ = 0;
  global_last_epoch_tick_ = max_routed_tick_;
  for (const auto& slot : routing_->slots) {
    if (slot->queue.push_forced(WalRecord::make_marker(seq)))
      routed_records_.fetch_add(1, std::memory_order_relaxed);
  }
  return seq;
}

std::uint64_t ReputationService::queue_depth() const {
  // A worker can count a record handled before its router counts it
  // routed, so the difference may briefly dip below zero.
  const std::uint64_t handled =
      handled_records_.load(std::memory_order_acquire);
  const std::uint64_t routed = routed_records_.load(std::memory_order_acquire);
  return routed > handled ? routed - handled : 0;
}

std::uint64_t ReputationService::force_epoch() {
  const util::MutexLock lock(route_mu_);
  return inject_marker();
}

void ReputationService::drain() {
  for (;;) {
    bool barrier_busy = false;
    {
      const util::MutexLock lock(epoch_mu_);
      barrier_busy = arrived_ != 0 || resize_arrived_ != 0;
    }
    std::uint64_t depth = 0;
    const auto table = routing_table();
    for (const auto& slot : table->slots) depth += slot->queue.size();
    if (!barrier_busy && depth == 0 &&
        handled_records_.load(std::memory_order_acquire) >=
            routed_records_.load(std::memory_order_acquire))
      return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// --- Resizing --------------------------------------------------------------

ResizeStats ReputationService::resize(std::size_t new_num_shards) {
  if (new_num_shards == 0)
    throw std::invalid_argument("service resize: shard count must be >= 1");
  if (config_.cluster)
    throw std::invalid_argument(
        "service resize: decentralized-manager mode pins the shard count "
        "to the cluster's ring size");

  const util::MutexLock resize_lock(resize_mu_);
  if (stopped_.load(std::memory_order_relaxed))
    throw std::runtime_error("service resize: service is stopped");

  const auto old_table = routing_table();
  const std::size_t old_count = old_table->slots.size();
  ResizeStats stats;
  stats.num_shards = new_num_shards;
  if (new_num_shards == old_count) return stats;

  auto new_map =
      std::make_shared<const ShardMap>(new_num_shards, config_.num_nodes);
  const std::uint64_t new_epoch = old_table->map_epoch + 1;
  const auto new_count32 = static_cast<std::uint32_t>(new_num_shards);
  const auto start = std::chrono::steady_clock::now();

  // Successor slot table: surviving shard indices keep their slot objects
  // (state, queue, worker); new indices get fresh slots.
  SlotTable next;
  next.map = new_map;
  next.map_epoch = new_epoch;
  next.slots.reserve(new_num_shards);
  for (std::size_t s = 0; s < new_num_shards; ++s) {
    if (s < old_count)
      next.slots.push_back(old_table->slots[s]);
    else
      next.slots.push_back(std::make_shared<ShardSlot>(s, config_, *new_map));
  }
  auto next_ptr = std::make_shared<const SlotTable>(std::move(next));

  {
    // Fence injection and routing swap are one atomic routing step: FIFO
    // queue order then guarantees every record a worker pops before its
    // fence was routed under the old map, and everything after it under
    // the new one — which is what makes a shrink safe (nothing lands on a
    // retiring shard after its fence).
    const util::MutexLock lock(route_mu_);
    for (const auto& slot : old_table->slots) {
      if (slot->queue.push_forced(
              WalRecord::make_map_change(new_epoch, new_count32)))
        routed_records_.fetch_add(1, std::memory_order_relaxed);
    }
    routing_ = next_ptr;
  }

  {
    // Wait for every old worker to park at the fence. Ingest of
    // non-moving keys keeps flowing into the new table's queues the whole
    // time; only records for queues whose worker has not started yet (a
    // grown shard) can block the producer, bounded by this window.
    util::MutexLock lock(epoch_mu_);
    while (resize_arrived_ < old_count &&
           !crashing_.load(std::memory_order_relaxed))
      epoch_cv_.wait(epoch_mu_);
    if (crashing_.load(std::memory_order_relaxed))
      throw std::runtime_error("service resize: service crashed");
  }

  // Handoff: every worker is parked, so shard state is single-threaded
  // here. Only the nodes whose owner changed move: each leaving node's
  // state is taken under the old map, every live shard re-slots for the
  // new map (dropping what is left of the nodes it lost), and the taken
  // state lands in the new owners' slots. Re-stamping every live shard
  // also lets the global detector be rebuilt: a fresh instance does a
  // full rebuild at the next epoch, so detection reports stay
  // byte-identical to a never-resized run.
  const std::vector<rating::NodeId> moved =
      ShardMap::moved_nodes(*old_table->map, *new_map);
  std::vector<ServiceShard::NodeTransfer> transfers;
  transfers.reserve(moved.size());
  for (rating::NodeId id : moved)
    transfers.push_back(
        old_table->slots[old_table->map->owner(id)]->shard.take_node(id));
  for (const auto& slot : next_ptr->slots)
    slot->shard.set_shard_map_stamp(new_epoch, *new_map);
  for (const ServiceShard::NodeTransfer& t : transfers)
    next_ptr->slots[new_map->owner(t.id)]->shard.restore_node(t);
  stats.keys_moved = moved.size();

  // Grown shards join at the epoch every old shard closed before its
  // fence.
  const std::uint64_t closed = old_table->slots[0]->shard.epochs_completed();
  for (std::size_t s = old_count; s < new_num_shards; ++s)
    next_ptr->slots[s]->shard.close_epoch(closed);
  make_global_detector(*next_ptr);

  // Durable commit: every live shard checkpoints under the new map and
  // rotates its WAL to a header stamped (new_epoch, new_count); grown
  // shards get their WAL first so no live shard is left without one.
  // Only once every file carries the new stamp is the resize recoverable
  // as committed; a crash before that point recovers under the old map
  // (recovery strips the fence markers).
  bool commit_ok = true;
  if (!config_.wal_dir.empty()) {
    for (std::size_t s = 0; s < next_ptr->slots.size(); ++s) {
      ServiceShard& shard = next_ptr->slots[s]->shard;
      if (s >= old_count)
        shard.attach_wal(
            WalWriter::create(wal_path(s), 0, new_epoch, new_count32));
      if (shard.checkpoint_and_rotate(ckpt_path(s)))
        checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
      else
        commit_ok = false;
    }
    for (std::size_t s = new_num_shards; s < old_count; ++s) {
      std::filesystem::remove(wal_path(s));
      std::filesystem::remove(ckpt_path(s));
    }
  }

  {
    const util::MutexLock lock(applied_mu_);
    applied_ = next_ptr;
  }
  {
    // Moved nodes took their state along: the view stays exact.
    const util::MutexLock lock(view_mu_);
    published_.map = new_map;
  }
  {
    const util::MutexLock lock(epoch_mu_);
    barrier_size_ = new_num_shards;
    resize_arrived_ = 0;
    resize_done_epoch_ = new_epoch;
  }
  epoch_cv_.notify_all();

  stats.duration_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  // Retire shrunk-away shards: their queues hold nothing past the fence
  // (the swap above), so close + join is immediate. Counter history folds
  // into the retired bases so service totals stay monotone.
  for (std::size_t s = new_num_shards; s < old_count; ++s) {
    const auto& slot = old_table->slots[s];
    retired_applied_.fetch_add(slot->shard.applied_total(),
                               std::memory_order_relaxed);
    slot->queue.close();
    if (slot->worker.joinable()) slot->worker.join();
  }
  // Start workers for grown shards; their queues may already hold records
  // routed during the handoff window.
  for (std::size_t s = old_count; s < new_num_shards; ++s) {
    const auto& slot = next_ptr->slots[s];
    slot->worker = std::thread([this, slot] { worker_loop(slot); });
  }

  resizes_completed_.fetch_add(1, std::memory_order_relaxed);
  keys_moved_last_resize_.store(stats.keys_moved, std::memory_order_relaxed);
  last_resize_ms_.store(stats.duration_ms, std::memory_order_relaxed);

  if (!commit_ok) {
    // The in-memory resize is complete and the service keeps running at
    // the new width, but the on-disk state now mixes map stamps.
    checkpoints_enabled_.store(false, std::memory_order_relaxed);
    throw std::runtime_error(
        "service resize: durable commit failed (service continues; "
        "checkpointing disabled)");
  }
  return stats;
}

// --- Lifecycle -------------------------------------------------------------

void ReputationService::stop() {
  const util::MutexLock resize_lock(resize_mu_);
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  const auto slots = all_slots();
  for (const auto& slot : slots) slot->queue.close();
  for (const auto& slot : slots)
    if (slot->worker.joinable()) slot->worker.join();
}

void ReputationService::crash_stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  crashing_.store(true);
  {
    // Fence + wake: parked workers and a resize() waiting for fence
    // arrivals re-check crashing_ after this lock/notify pair (the resize
    // throws, releasing resize_mu_).
    const util::MutexLock lock(epoch_mu_);
  }
  epoch_cv_.notify_all();
  {
    // Wait out any in-flight resize so the slot tables are stable below.
    const util::MutexLock lock(resize_mu_);
  }
  const auto slots = all_slots();
  for (const auto& slot : slots) slot->queue.purge_and_close();
  {
    const util::MutexLock lock(epoch_mu_);
  }
  epoch_cv_.notify_all();
  for (const auto& slot : slots)
    if (slot->worker.joinable()) slot->worker.join();
}

// --- Workers and epochs ----------------------------------------------------

void ReputationService::worker_loop(std::shared_ptr<ShardSlot> slot_ptr) {
  ShardSlot& slot = *slot_ptr;
  // Handled records whose WAL frames are still staged. They count as
  // handled (drain(), queue_depth()) only once their run is in the file.
  std::uint64_t unwritten = 0;
  for (;;) {
    auto rec = slot.queue.try_pop();
    if (!rec) {
      // The queue ran dry: write the drained run before waiting. pop()
      // returns nullopt only once the queue is closed and empty, so this
      // is also the write on worker exit.
      slot.shard.flush_wal();
      if (unwritten != 0)
        handled_records_.fetch_add(std::exchange(unwritten, 0),
                                   std::memory_order_release);
      rec = slot.queue.pop();
      if (!rec) return;
    }
    if (crashing_.load(std::memory_order_relaxed)) return;
    handle_record(slot, *rec);
    if (slot.shard.wal_run_pending())
      ++unwritten;
    else
      handled_records_.fetch_add(std::exchange(unwritten, 0) + 1,
                                 std::memory_order_release);
  }
}

void ReputationService::handle_record(ShardSlot& slot, const WalRecord& rec) {
  if (rec.kind == WalRecordKind::kRating) {
    if (config_.cluster) {
      // Decentralized-manager mode: the rating's authoritative home is
      // its owner key range in the manager cluster. The forward is
      // synchronous, so by the time this worker parks at the next epoch
      // barrier every rating it routed is acknowledged cluster-side.
      if (config_.cluster->forward(slot.shard.index(), rec.rating))
        cluster_forwards_.fetch_add(1, std::memory_order_relaxed);
      else
        cluster_forward_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.shard.stage_record(rec);
    slot.shard.apply_rating(rec.rating);
  } else if (rec.kind == WalRecordKind::kEpochMarker) {
    // log_record() writes the staged run with the marker, so an epoch's
    // checkpoint rotation never cuts a run in half.
    slot.shard.log_record(rec);
    global_barrier(rec.epoch_seq);
  } else {
    // Resize fence. Logged so a crash inside the handoff window leaves
    // evidence (recovery strips it and resumes under the old map); a
    // committed resize rotates this WAL, so the marker never survives
    // one.
    slot.shard.log_record(rec);
    resize_fence(rec.epoch_seq);
  }
}

void ReputationService::resize_fence(std::uint64_t map_epoch) {
  util::MutexLock lock(epoch_mu_);
  ++resize_arrived_;
  epoch_cv_.notify_all();
  while (resize_done_epoch_ < map_epoch &&
         !crashing_.load(std::memory_order_relaxed))
    epoch_cv_.wait(epoch_mu_);
}

void ReputationService::global_barrier(std::uint64_t seq) {
  bool coordinator = false;
  {
    const util::MutexLock lock(epoch_mu_);
    ++arrived_;
    if (arrived_ == barrier_size_) {
      arrived_ = 0;
      coordinator = true;
    }
  }
  if (!coordinator) {
    // Parked worker: wait for the epoch to commit.
    util::MutexLock lock(epoch_mu_);
    while (epoch_done_seq_ < seq && !crashing_.load(std::memory_order_relaxed))
      epoch_cv_.wait(epoch_mu_);
    return;
  }
  // Coordinator (last arriver): every other worker is parked, all shard
  // state is frozen. The epoch body runs off-lock, so drain() and
  // crash_stop() never wait behind a sweep.
  run_global_epoch(seq, /*live=*/true);
  {
    const util::MutexLock lock(epoch_mu_);
    epoch_done_seq_ = seq;
  }
  epoch_cv_.notify_all();
}

void ReputationService::run_global_epoch(std::uint64_t seq, bool live) {
  const auto start = std::chrono::steady_clock::now();
  const auto table = applied_table();
  const auto& slots = table->slots;

  if (config_.cluster) {
    // Refresh the working copies: every worker is parked at the barrier
    // with its forwards acknowledged, so the managers hold exactly the
    // pre-epoch stream — pulling each range now freezes the same state a
    // single-process epoch would see. A failed pull (all holders down)
    // leaves that range's previous copy in place rather than killing the
    // coordinator thread.
    for (const auto& slot : slots) {
      std::string blob;
      for (int attempt = 0; attempt < 3 && blob.empty(); ++attempt)
        blob = config_.cluster->pull(slot->shard.index());
      if (blob.empty()) continue;
      const auto ckpt = parse_checkpoint(blob);
      if (!ckpt) continue;
      try {
        slot->shard.reload_from(*ckpt);
      } catch (const std::runtime_error&) {
        // A blob naming ids outside the key space is refused whole.
      }
    }
  }

  for (const auto& slot : slots) slot->shard.manager().update_reputations();

  const core::DetectionReport report = global_detect(*table);
  const std::vector<rating::NodeId> flagged = report.colluders();

  for (const auto& slot : slots)
    slot->shard.commit_epoch(seq, flagged);
  if (config_.record_reports) {
    std::string text = format_epoch_report("global", seq, report);
    const util::MutexLock lock(log_mu_);
    report_log_ += text;
  }
  // Recovery replay publishes once, after its last epoch.
  if (live) publish_view(*table);

  if (config_.cluster) {
    // Cluster-wide epoch commit: every manager replays the same verdict
    // sequence on its held ranges (idempotent on retry), keeping manager
    // state in lockstep with the reports formatted above.
    (void)config_.cluster->push(seq, flagged);
  }

  record_rings(report);

  if (live) {
    record_epoch_metrics(start, report.pairs.size() + report.rings.size());
    if (checkpoints_enabled_.load(std::memory_order_relaxed) &&
        seq % config_.checkpoint_every_epochs == 0) {
      for (const auto& slot : slots) checkpoint_shard(*slot);
    }
  }
}

void ReputationService::make_global_detector(const SlotTable& table) {
  global_detector_ =
      detect::make_detector(config_.detector, config_.detector_config);
  if (global_detector_->wants_dirty_tracking()) {
    for (const auto& slot : table.slots)
      slot->shard.manager().enable_dirty_tracking();
  }
}

core::DetectionReport ReputationService::global_detect(
    const SlotTable& table) {
  const auto& slots = table.slots;
  detect::EpochSnapshot snap;
  snap.matrices.reserve(slots.size());
  for (const auto& slot : slots)
    snap.matrices.push_back(&slot->shard.manager().matrix());
  // A view, not a copy: `table` holds the map for the whole epoch.
  if (snap.matrices.size() > 1) snap.owners = table.map->owners();
  // Lend the scan pool to the detect layer; a null executor keeps every
  // sweep serial.
  snap.executor = scan_executor_.get();

  // The configured detector runs over the snapshot of all shard matrices
  // (the detect layer handles multi-matrix natively, accomplice exchange
  // included).
  if (global_detector_->wants_dirty_tracking()) {
    snap.dirty.reserve(slots.size());
    for (const auto& slot : slots)
      snap.dirty.push_back(slot->shard.manager().take_dirty_cells());
  }
  core::DetectionReport report = global_detector_->on_epoch(snap);
  accomplice_rounds_.store(global_detector_->stats().accomplice_rounds,
                           std::memory_order_relaxed);
  return report;
}

void ReputationService::checkpoint_shard(ShardSlot& slot) {
  if (slot.shard.checkpoint_and_rotate(ckpt_path(slot.shard.index())))
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  else
    checkpoints_enabled_.store(false, std::memory_order_relaxed);
}

void ReputationService::record_rings(const core::DetectionReport& report) {
  rings_found_.fetch_add(report.rings.size(), std::memory_order_relaxed);
  for (const auto& ring : report.rings) {
    std::uint64_t prev = ring_largest_.load(std::memory_order_relaxed);
    while (prev < ring.members.size() &&
           !ring_largest_.compare_exchange_weak(prev, ring.members.size(),
                                                std::memory_order_relaxed)) {
    }
  }
  ring_scan_us_.store(global_detector_->stats().scan_us,
                      std::memory_order_relaxed);
}

void ReputationService::record_epoch_metrics(
    std::chrono::steady_clock::time_point start, std::size_t detections) {
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  detections_total_.fetch_add(detections, std::memory_order_relaxed);
  last_epoch_detections_.store(detections, std::memory_order_relaxed);
  const util::MutexLock lock(latency_mu_);
  epoch_latency_ms_.push_back(ms);
  if (epoch_latency_ms_.size() > 8192) {
    epoch_latency_ms_.erase(epoch_latency_ms_.begin(),
                            epoch_latency_ms_.begin() + 4096);
  }
}

// --- Read side -------------------------------------------------------------

std::shared_ptr<const ReputationService::SlotTable>
ReputationService::routing_table() const {
  const util::MutexLock lock(route_mu_);
  return routing_;
}

std::shared_ptr<const ReputationService::SlotTable>
ReputationService::applied_table() const {
  const util::MutexLock lock(applied_mu_);
  return applied_;
}

std::vector<std::shared_ptr<ReputationService::ShardSlot>>
ReputationService::all_slots() const {
  const auto routing = routing_table();
  const auto applied = applied_table();
  std::vector<std::shared_ptr<ShardSlot>> slots = applied->slots;
  for (const auto& slot : routing->slots) {
    if (std::find(slots.begin(), slots.end(), slot) == slots.end())
      slots.push_back(slot);
  }
  return slots;
}

std::size_t ReputationService::num_shards() const {
  return applied_table()->slots.size();
}

std::size_t ReputationService::shard_of(rating::NodeId id) const {
  const auto table = applied_table();
  return id < config_.num_nodes ? table->map->owner(id) : 0;
}

void ReputationService::publish_view(const SlotTable& table) {
  auto view = std::make_shared<PublishedView>();
  view->reputations.assign(config_.num_nodes, 0.0);
  view->suspected.assign(config_.num_nodes, 0);
  // Every shard closed the same global epoch.
  view->epoch = table.slots.front()->shard.epochs_completed();
  for (const auto& slot : table.slots) {
    ServiceShard& shard = slot->shard;
    const reputation::ReputationEngine& engine = shard.engine();
    const auto& detected = shard.manager().detected();
    for (const rating::NodeId i : shard.manager().matrix().owned_nodes()) {
      view->reputations[i] = engine.reputation(i);
      view->suspected[i] = detected.contains(i) ? 1 : 0;
    }
  }
  const util::MutexLock lock(view_mu_);
  published_.view = std::move(view);
  published_.map = table.map;
}

void ReputationService::inspect_matrices(
    const std::function<void(std::size_t, const rating::RatingMatrix&)>& fn)
    const {
  const auto table = applied_table();
  for (std::size_t s = 0; s < table->slots.size(); ++s)
    fn(s, table->slots[s]->shard.manager().matrix());
}

ServiceSnapshot ReputationService::snapshot() const {
  const util::MutexLock lock(view_mu_);
  return published_;
}

ServiceMetrics ReputationService::metrics() const {
  const auto table = applied_table();
  const auto& slots = table->slots;
  ServiceMetrics m;
  m.ratings_accepted = accepted_.load(std::memory_order_relaxed);
  m.ratings_rejected = rejected_.load(std::memory_order_relaxed);
  std::uint64_t applied = retired_applied_.load(std::memory_order_relaxed);
  m.queue_depth = queue_depth();
  for (const auto& slot : slots) {
    applied += slot->shard.applied_total();
    m.wal_records += slot->shard.wal_records();
    m.wal_bytes += slot->shard.wal_bytes();
    m.matrix_bytes += slot->shard.matrix_resident_bytes();
  }
  // The shards' shared slot tables, charged once.
  m.matrix_bytes += table->map->row_index()->slot_table_bytes();
  m.ratings_applied = applied;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  if (secs > 0.0)
    m.ingest_rate_per_sec =
        static_cast<double>(applied - applied_base_) / secs;

  m.epochs_completed = slots.front()->shard.epochs_completed();
  m.detections_total = detections_total_.load(std::memory_order_relaxed);
  m.last_epoch_detections =
      last_epoch_detections_.load(std::memory_order_relaxed);
  m.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);

  m.rings_found = rings_found_.load(std::memory_order_relaxed);
  m.ring_largest = ring_largest_.load(std::memory_order_relaxed);
  m.ring_scan_us = ring_scan_us_.load(std::memory_order_relaxed);

  // Parallel-epoch gauges.
  m.epoch_scan_threads = epoch_scan_threads_.load(std::memory_order_relaxed);
  m.accomplice_exchange_rounds =
      accomplice_rounds_.load(std::memory_order_relaxed);

  // Cluster gauges (decentralized-manager mode). Forwards that no holder
  // acknowledged are lost ratings — surfaced as drops.
  m.cluster_forwards = cluster_forwards_.load(std::memory_order_relaxed);
  m.ratings_dropped =
      cluster_forward_failures_.load(std::memory_order_relaxed);
  if (config_.cluster && config_.cluster->failovers)
    m.cluster_failovers = config_.cluster->failovers();

  // Shard-map gauges (elastic resharding).
  m.current_shard_count = slots.size();
  m.shard_map_epoch = table->map_epoch;
  m.resizes_completed = resizes_completed_.load(std::memory_order_relaxed);
  m.keys_moved_last_resize =
      keys_moved_last_resize_.load(std::memory_order_relaxed);
  m.last_resize_ms = last_resize_ms_.load(std::memory_order_relaxed);

  // Copy the window under the lock and sort outside it: workers take
  // latency_mu_ after every epoch, and a caller polling metrics() in a
  // loop that sorted under the lock could starve them of it indefinitely.
  std::vector<double> sorted;
  {
    const util::MutexLock lock(latency_mu_);
    sorted = epoch_latency_ms_;
  }
  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double v : sorted) sum += v;
    m.epoch_latency_ms_mean = sum / static_cast<double>(sorted.size());
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(
            static_cast<double>(sorted.size()) * 0.99));
    m.epoch_latency_ms_p99 = sorted[idx];
  }
  return m;
}

std::string ReputationService::report_log() const {
  const util::MutexLock lock(log_mu_);
  return report_log_;
}

}  // namespace p2prep::service
