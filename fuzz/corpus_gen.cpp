// Deterministic seed-corpus generator. Writes the checked-in corpus under
// fuzz/corpus/{rpc,wal,checkpoint}/ by round-tripping the project's REAL
// encoders (rpc::encode_*, service::append_wal_*, encode_checkpoint), so
// every structural seed is a byte-exact valid input — the fuzzer starts
// from deep coverage instead of flailing at the magic/CRC checks — plus
// hand-built hostile fixtures that pin each decoder guard (oversize
// lengths, hostile counts under a valid CRC, bad kinds/scores, torn
// frames, version skew).
//
// Usage:  fuzz_corpus_gen <output-dir>
//
// Output is a pure function of this file: no clocks, no randomness, stable
// filenames. Regenerating over an up-to-date checkout must be a no-op
// (ctest FuzzCorpus.* verifies exactly that), so any encoder change that
// shifts the wire format shows up as a corpus diff in review.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cluster/protocol.h"
#include "rating/types.h"
#include "rpc/protocol.h"
#include "service/metrics.h"
#include "service/wal.h"

namespace {

using p2prep::rating::Rating;
using p2prep::rating::Score;

int g_failures = 0;

void emit(const std::filesystem::path& dir, const char* name,
          const std::string& bytes) {
  const std::filesystem::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "corpus_gen: failed to write %s\n",
                 path.string().c_str());
    ++g_failures;
  }
}

// --- RPC seeds -------------------------------------------------------------

/// Frames `payload` exactly as the client/server write path does.
std::string framed(const std::string& payload) {
  return p2prep::rpc::encode_frame(payload);
}

void gen_rpc(const std::filesystem::path& dir) {
  namespace rpc = p2prep::rpc;

  // Valid requests, one per bodied message type (+ the body-less kPing).
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kPing, 1);
    emit(dir, "req_ping", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kSubmitRating, 2);
    rpc::SubmitRatingRequest body;
    body.rating = Rating{7, 11, Score::kPositive, 42};
    body.encode(p);
    emit(dir, "req_submit_rating", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kSubmitBatch, 3);
    rpc::SubmitBatchRequest body;
    body.ratings = {Rating{1, 2, Score::kPositive, 10},
                    Rating{2, 1, Score::kNegative, 11},
                    Rating{3, 4, Score::kNeutral, 12}};
    body.encode(p);
    emit(dir, "req_submit_batch", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kQueryReputation, 4);
    rpc::QueryReputationRequest body;
    body.node = 9;
    body.encode(p);
    emit(dir, "req_query_reputation", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kResize, 5);
    rpc::ResizeRequest body;
    body.new_num_shards = 8;
    body.encode(p);
    emit(dir, "req_resize", framed(p));
  }

  // Valid responses, one per bodied type + kGoAway's bare envelope.
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kSubmitBatch);
    h.request_id = 3;
    rpc::encode_response_header(p, h);
    rpc::SubmitBatchResponse body;
    body.accepted = 2;
    body.rejected = 1;
    body.encode(p);
    emit(dir, "resp_submit_batch", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kQueryReputation);
    h.request_id = 4;
    rpc::encode_response_header(p, h);
    rpc::QueryReputationResponse body;
    body.reputation = 0.625;
    body.suspected = 1;
    body.epoch = 17;
    body.shard = 2;
    body.encode(p);
    emit(dir, "resp_query_reputation", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kQueryColluders);
    h.request_id = 6;
    rpc::encode_response_header(p, h);
    rpc::QueryColludersResponse body;
    body.colluders = {3, 5, 9};
    body.total_suspected = 3;
    body.truncated = 0;
    body.encode(p);
    emit(dir, "resp_query_colluders", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kGetMetrics);
    h.request_id = 7;
    rpc::encode_response_header(p, h);
    // Every field distinct and set by name: a reordered or retyped row in
    // ServiceMetrics::for_each_field changes these bytes.
    rpc::GetMetricsResponse body;
    auto& m = body.metrics;
    m.ratings_accepted = 1000;
    m.ratings_rejected = 11;
    m.ratings_dropped = 12;
    m.ratings_applied = 977;
    m.queue_depth = 13;
    m.ingest_rate_per_sec = 12345.5;
    m.epochs_completed = 4;
    m.detections_total = 6;
    m.last_epoch_detections = 2;
    m.epoch_latency_ms_mean = 1.25;
    m.epoch_latency_ms_p99 = 3.75;
    m.wal_records = 990;
    m.wal_bytes = 23760;
    m.checkpoints_written = 1;
    m.matrix_bytes = 65536;
    m.rpc_accepted = 3;
    m.rpc_rejected = 5;
    m.rpc_requests = 1024;
    m.rpc_shed = 7;
    m.rpc_bytes_in = 17408;
    m.rpc_bytes_out = 9216;
    m.rpc_active_connections = 8;
    m.rings_found = 9;
    m.ring_largest = 10;
    m.ring_scan_us = 150;
    m.current_shard_count = 14;
    m.shard_map_epoch = 15;
    m.resizes_completed = 16;
    m.keys_moved_last_resize = 17;
    m.last_resize_ms = 0.5;
    m.epoch_scan_threads = 18;
    m.accomplice_exchange_rounds = 20;
    m.cluster_owned_keys = 21;
    m.cluster_replica_lag = 22;
    m.cluster_forwards = 23;
    m.cluster_failovers = 24;
    body.encode(p);
    emit(dir, "resp_get_metrics", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kResize);
    h.request_id = 5;
    rpc::encode_response_header(p, h);
    rpc::ResizeResponse body;
    body.num_shards = 8;
    body.keys_moved = 512;
    body.duration_ms = 3;
    body.encode(p);
    emit(dir, "resp_resize", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kGoAway);
    h.request_id = 0;
    h.status = rpc::Status::kRetryLater;
    h.backoff_hint_ms = 250;
    rpc::encode_response_header(p, h);
    emit(dir, "resp_goaway_retry_later", framed(p));
  }

  // Stream mode: two back-to-back frames in one input.
  {
    std::string ping;
    rpc::encode_request_header(ping, rpc::MsgType::kPing, 8);
    std::string query;
    rpc::encode_request_header(query, rpc::MsgType::kQueryReputation, 9);
    rpc::QueryReputationRequest body;
    body.node = 1;
    body.encode(query);
    emit(dir, "stream_two_frames", framed(ping) + framed(query));
  }

  // Version skew: the envelope decoder must surface version 2 (so the
  // server answers kUnsupportedVersion), not choke on it.
  {
    std::string p;
    rpc::put_u8(p, 2);  // future protocol version
    rpc::put_u8(p, static_cast<std::uint8_t>(rpc::MsgType::kPing));
    rpc::put_u64(p, 10);
    emit(dir, "req_version_skew", framed(p));
  }

  // Hostile framing: each fixture pins one guard in try_decode_frame.
  {
    const std::string whole = framed(std::string("payload"));
    emit(dir, "frame_truncated_header", whole.substr(0, 5));
    emit(dir, "frame_truncated_payload", whole.substr(0, whole.size() - 2));
    std::string bad_crc = whole;
    bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x01);
    emit(dir, "frame_bad_crc", bad_crc);
  }
  {
    // Length field beyond kDefaultMaxFrameBytes: must be kError (stream
    // corrupt), never an allocation of the announced size.
    std::string p;
    rpc::put_u32(p, 0xffffffffu);
    rpc::put_u32(p, 0xdeadbeefu);
    emit(dir, "frame_oversize_len", p);
  }

  // Hostile counts under a VALID frame CRC: the count guard inside the
  // body decoder is the only line of defense (kMaxBatchRatings /
  // kMaxColluderIds, and the bytes-present check).
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kSubmitBatch, 11);
    rpc::put_u32(p, 0xffffffffu);  // count with no ratings behind it
    emit(dir, "req_batch_hostile_count", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kQueryColluders);
    h.request_id = 12;
    rpc::encode_response_header(p, h);
    rpc::put_u32(p, 0x00ffffffu);  // count >> kMaxColluderIds
    emit(dir, "resp_colluders_hostile_count", framed(p));
  }
}

// --- Manager-cluster seeds (same rpc framing, so same corpus dir) ----------

void gen_cluster(const std::filesystem::path& dir) {
  namespace rpc = p2prep::rpc;
  namespace cluster = p2prep::cluster;

  // Valid requests, one per manager-to-manager type with a body
  // (kMgrRingInfo's request is body-less, like kPing).
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrInsert, 20);
    cluster::MgrInsertRequest body;
    body.source = 3;
    body.seq = 41;
    body.forwarded = 1;
    body.rating = Rating{7, 11, Score::kPositive, 42};
    body.encode(p);
    emit(dir, "req_mgr_insert", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrReplicate, 21);
    cluster::MgrReplicateRequest body;
    body.range = 2;
    body.source = 3;
    body.seq = 41;
    body.rating = Rating{7, 11, Score::kPositive, 42};
    body.encode(p);
    emit(dir, "req_mgr_replicate", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrStatePull, 22);
    cluster::MgrStatePullRequest body;
    body.range = 1;
    body.encode(p);
    emit(dir, "req_mgr_state_pull", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrColluderSet, 23);
    cluster::MgrColluderSetRequest body;
    body.epoch_seq = 5;
    body.flagged = {3, 5, 9};
    body.encode(p);
    emit(dir, "req_mgr_colluder_set", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrRejoin, 24);
    cluster::MgrRejoinRequest body;
    body.index = 2;
    body.encode(p);
    emit(dir, "req_mgr_rejoin", framed(p));
  }
  {
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrResyncHint, 26);
    cluster::MgrResyncHintRequest body;
    body.range = 1;
    body.encode(p);
    emit(dir, "req_mgr_resync_hint", framed(p));
  }

  // Valid responses, one per bodied type.
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrInsert);
    h.request_id = 20;
    rpc::encode_response_header(p, h);
    cluster::MgrInsertResponse body;
    body.duplicate = 1;
    body.encode(p);
    emit(dir, "resp_mgr_insert", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrStatePull);
    h.request_id = 22;
    rpc::encode_response_header(p, h);
    cluster::MgrStatePullResponse body;
    body.range = 1;
    body.blob = "checkpoint-image-bytes";
    body.seqs = {{3, 41}, {4, 17}};
    body.encode(p);
    emit(dir, "resp_mgr_state_pull", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrColluderSet);
    h.request_id = 23;
    rpc::encode_response_header(p, h);
    cluster::MgrColluderSetResponse body;
    body.epochs_completed = 5;
    body.encode(p);
    emit(dir, "resp_mgr_colluder_set", framed(p));
  }
  {
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrRingInfo);
    h.request_id = 25;
    rpc::encode_response_header(p, h);
    cluster::MgrRingInfoResponse body;
    body.replication = 2;
    body.num_nodes = 1000;
    body.members = {{"127.0.0.1", 7500, 1},
                    {"127.0.0.1", 7501, 0},
                    {"127.0.0.1", 7502, 1}};
    body.encode(p);
    emit(dir, "resp_mgr_ring_info", framed(p));
  }

  // Hostile bodies under a VALID frame CRC — each pins one decoder guard
  // in cluster/protocol.cpp.
  {
    // forwarded flag outside {0,1}: a second relay must be rejected at
    // decode, not looped.
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrInsert, 30);
    rpc::put_u64(p, 3);   // source
    rpc::put_u64(p, 41);  // seq
    rpc::put_u8(p, 2);    // forwarded > 1
    rpc::put_rating(p, Rating{7, 11, Score::kPositive, 42});
    emit(dir, "req_mgr_insert_bad_forwarded", framed(p));
  }
  {
    // blob_len beyond kMaxStateBlobBytes with no bytes behind it.
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrStatePull);
    h.request_id = 31;
    rpc::encode_response_header(p, h);
    rpc::put_u32(p, 1);            // range
    rpc::put_u32(p, 0xffffffffu);  // blob_len >> kMaxStateBlobBytes
    emit(dir, "resp_state_pull_hostile_blob_len", framed(p));
  }
  {
    // seq-table count beyond kMaxSeqEntries behind an empty blob.
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrStatePull);
    h.request_id = 32;
    rpc::encode_response_header(p, h);
    rpc::put_u32(p, 1);            // range
    rpc::put_u32(p, 0);            // empty blob
    rpc::put_u32(p, 0xffffffffu);  // seq count >> kMaxSeqEntries
    emit(dir, "resp_state_pull_hostile_seq_count", framed(p));
  }
  {
    // flagged-id count with no ids behind it (kMaxColluderIds guard).
    std::string p;
    rpc::encode_request_header(p, rpc::MsgType::kMgrColluderSet, 33);
    rpc::put_u64(p, 5);            // epoch_seq
    rpc::put_u32(p, 0xffffffffu);  // count, no ids follow
    emit(dir, "req_mgr_colluder_set_hostile_count", framed(p));
  }
  {
    // member count beyond kMaxManagers with no members behind it.
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrRingInfo);
    h.request_id = 34;
    rpc::encode_response_header(p, h);
    rpc::put_u32(p, 2);            // replication
    rpc::put_u64(p, 1000);         // num_nodes
    rpc::put_u32(p, 0xffffffffu);  // member count >> kMaxManagers
    emit(dir, "resp_ring_info_hostile_member_count", framed(p));
  }
  {
    // host_len beyond kMaxHostBytes inside the first member.
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrRingInfo);
    h.request_id = 35;
    rpc::encode_response_header(p, h);
    rpc::put_u32(p, 2);       // replication
    rpc::put_u64(p, 1000);    // num_nodes
    rpc::put_u32(p, 1);       // one member
    rpc::put_u16(p, 0xffff);  // host_len >> kMaxHostBytes
    emit(dir, "resp_ring_info_hostile_host_len", framed(p));
  }
  {
    // alive flag outside {0,1}.
    std::string p;
    rpc::ResponseHeader h;
    h.type = static_cast<std::uint8_t>(rpc::MsgType::kMgrRingInfo);
    h.request_id = 36;
    rpc::encode_response_header(p, h);
    rpc::put_u32(p, 2);     // replication
    rpc::put_u64(p, 1000);  // num_nodes
    rpc::put_u32(p, 1);     // one member
    rpc::put_u16(p, 4);     // host_len
    p.append("host");
    rpc::put_u16(p, 7500);  // port
    rpc::put_u8(p, 2);      // alive > 1
    emit(dir, "resp_ring_info_bad_alive", framed(p));
  }
}

// --- WAL seeds -------------------------------------------------------------

void gen_wal(const std::filesystem::path& dir) {
  namespace service = p2prep::service;
  using service::WalRecord;

  std::string header;
  service::append_wal_header(header, /*generation=*/1, /*map_epoch=*/0,
                             /*num_shards=*/4);

  emit(dir, "header_only", header);

  {
    std::string img = header;
    service::append_wal_frame(img, WalRecord::make_rating(
                                       Rating{1, 2, Score::kPositive, 5}));
    service::append_wal_frame(img, WalRecord::make_rating(
                                       Rating{2, 3, Score::kNegative, 6}));
    service::append_wal_frame(img, WalRecord::make_rating(
                                       Rating{3, 1, Score::kNeutral, 7}));
    emit(dir, "ratings", img);

    service::append_wal_frame(img, WalRecord::make_marker(1));
    emit(dir, "ratings_epoch_marker", img);

    // Uncommitted-resize residue: fence marker as the last record.
    std::string fenced = img;
    service::append_wal_frame(fenced, WalRecord::make_map_change(
                                          /*map_epoch=*/1, /*new_shards=*/8));
    emit(dir, "resize_fence_tail", fenced);

    // Torn tail: crash mid-append left half a frame. The valid prefix must
    // parse, truncated_tail must be reported.
    std::string torn = img;
    std::string extra;
    service::append_wal_frame(extra, WalRecord::make_rating(
                                         Rating{4, 5, Score::kPositive, 8}));
    torn += extra.substr(0, extra.size() / 2);
    emit(dir, "torn_tail", torn);
  }

  // Header mutations.
  {
    std::string bad_magic = header;
    bad_magic[0] = 'X';
    emit(dir, "bad_magic", bad_magic);
    emit(dir, "truncated_header", header.substr(0, 12));
  }

  // Hostile record length past kMaxWalRecordBytes: the reader must cut the
  // file there, not trust the announced size.
  {
    std::string img = header;
    p2prep::rpc::put_u32(img, service::kMaxWalRecordBytes + 1);
    p2prep::rpc::put_u32(img, 0xdeadbeefu);
    emit(dir, "oversize_record_len", img);
  }

  // Frame-level corruption: valid length, wrong CRC.
  {
    std::string img = header;
    service::append_wal_frame(img, WalRecord::make_marker(9));
    img.back() = static_cast<char>(img.back() ^ 0x01);
    emit(dir, "record_bad_crc", img);
  }

  // Payload-level corruption under a VALID CRC — the payload decoder's own
  // validation is what must reject these.
  {
    std::string payload;
    p2prep::rpc::put_u8(payload, 9);  // unknown record kind
    std::string img = header;
    p2prep::rpc::put_u32(img, static_cast<std::uint32_t>(payload.size()));
    p2prep::rpc::put_u32(img, service::crc32(payload.data(), payload.size()));
    img += payload;
    emit(dir, "bad_kind_valid_crc", img);
  }
  {
    std::string payload;
    p2prep::rpc::put_u8(
        payload, static_cast<std::uint8_t>(service::WalRecordKind::kRating));
    p2prep::rpc::put_u32(payload, 1);
    p2prep::rpc::put_u32(payload, 2);
    p2prep::rpc::put_u8(payload, 7);  // biased score out of [0,2]
    p2prep::rpc::put_u64(payload, 3);
    std::string img = header;
    p2prep::rpc::put_u32(img, static_cast<std::uint32_t>(payload.size()));
    p2prep::rpc::put_u32(img, service::crc32(payload.data(), payload.size()));
    img += payload;
    emit(dir, "bad_score_valid_crc", img);
  }
}

// --- Checkpoint seeds ------------------------------------------------------

void gen_checkpoint(const std::filesystem::path& dir) {
  namespace service = p2prep::service;
  namespace rpc = p2prep::rpc;

  service::ShardCheckpoint minimal;
  emit(dir, "minimal", service::encode_checkpoint(minimal));

  service::ShardCheckpoint full;
  full.wal_generation = 3;
  full.wal_records_applied = 128;
  full.map_epoch = 2;
  full.map_num_shards = 8;
  full.epochs_completed = 5;
  full.applied_total = 4096;
  full.applied_since_epoch = 96;
  full.last_epoch_tick = 700;
  full.engine_blob = "engine-state-bytes";
  full.suppressed = {2, 7, 19};
  full.detected = {7, 19};
  full.cells.push_back({/*ratee=*/1, /*rater=*/2, {10, 8, 1}});
  full.cells.push_back({/*ratee=*/2, /*rater=*/1, {4, 1, 3}});
  const std::string full_img = service::encode_checkpoint(full);
  emit(dir, "populated", full_img);

  // Corruption fixtures derived from the valid image.
  emit(dir, "truncated_tail", full_img.substr(0, full_img.size() - 3));
  {
    std::string bad_crc = full_img;
    bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x01);
    emit(dir, "bad_crc", bad_crc);
  }
  {
    std::string bad_magic = full_img;
    bad_magic[0] = 'X';
    emit(dir, "bad_magic", bad_magic);
  }

  // Hostile counts under a VALID CRC: a ~60-byte image announcing 2^32-1
  // suppressed ids (or 2^64/20 cells). The pre-allocation count guards in
  // parse_checkpoint are the only thing between this file and a multi-GiB
  // resize — CRC does not help, the "attacker" below computes it honestly.
  const auto hostile_image = [](const std::string& payload) {
    std::string img = "P2PCKPT2";
    rpc::put_u32(img, static_cast<std::uint32_t>(payload.size()));
    rpc::put_u32(img, service::crc32(payload.data(), payload.size()));
    img += payload;
    return img;
  };
  const auto fixed_prefix = [] {
    std::string payload;
    rpc::put_u64(payload, 1);   // wal_generation
    rpc::put_u64(payload, 0);   // wal_records_applied
    rpc::put_u64(payload, 0);   // map_epoch
    rpc::put_u32(payload, 1);   // map_num_shards
    rpc::put_u64(payload, 0);   // epochs_completed
    rpc::put_u64(payload, 0);   // applied_total
    rpc::put_u64(payload, 0);   // applied_since_epoch
    rpc::put_u64(payload, 0);   // last_epoch_tick
    rpc::put_u32(payload, 0);   // engine_blob length
    return payload;
  };
  {
    std::string payload = fixed_prefix();
    rpc::put_u32(payload, 0xffffffffu);  // suppressed count, no ids behind
    emit(dir, "hostile_suppressed_count", hostile_image(payload));
  }
  {
    std::string payload = fixed_prefix();
    rpc::put_u32(payload, 0);            // suppressed
    rpc::put_u32(payload, 0xffffffffu);  // detected count
    emit(dir, "hostile_detected_count", hostile_image(payload));
  }
  {
    std::string payload = fixed_prefix();
    rpc::put_u32(payload, 0);                       // suppressed
    rpc::put_u32(payload, 0);                       // detected
    rpc::put_u64(payload, 0xffffffffffffffffull);   // cell count
    emit(dir, "hostile_cell_count", hostile_image(payload));
  }
  {
    // engine_blob length pointing past the end of the payload.
    std::string payload = fixed_prefix();
    payload.resize(payload.size() - 4);  // drop the honest blob length
    rpc::put_u32(payload, 0xffffffffu);
    emit(dir, "hostile_blob_len", hostile_image(payload));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: fuzz_corpus_gen <output-dir>\n");
    return 2;
  }
  const std::filesystem::path root = argv[1];
  std::error_code ec;
  for (const char* sub : {"rpc", "wal", "checkpoint"}) {
    std::filesystem::create_directories(root / sub, ec);
    if (ec) {
      std::fprintf(stderr, "corpus_gen: cannot create %s: %s\n",
                   (root / sub).string().c_str(), ec.message().c_str());
      return 1;
    }
  }
  gen_rpc(root / "rpc");
  gen_cluster(root / "rpc");
  gen_wal(root / "wal");
  gen_checkpoint(root / "checkpoint");
  if (g_failures != 0) return 1;
  std::fprintf(stderr, "corpus_gen: wrote seed corpus under %s\n",
               root.string().c_str());
  return 0;
}
