// Wire protocol of the reputation-service RPC front-end (DESIGN.md
// "Network RPC front-end"). Request/response messages travel in the same
// CRC32 framing the WAL uses:
//
//   frame:    u32 payload_len | u32 crc32(payload) | payload
//   request:  u8 version | u8 msg_type        | u64 request_id | body
//   response: u8 version | u8 msg_type|0x80   | u64 request_id |
//             u8 status | u32 backoff_hint_ms | body
//
// All integers are little-endian (host-order independent, matching the
// WAL layout). `msg_type|0x80` marks a response to the request type in the
// low bits; `kGoAway` is the one server-initiated message (sent before a
// connection is refused or torn down) and is always a response. Every
// response carries the status envelope; `backoff_hint_ms` is non-zero only
// with `kRetryLater`, the overload-shed status — the client is expected to
// wait at least that long before retrying (rpc/client.h honors it).
//
// Versioning: a request whose version byte differs from kProtocolVersion
// is answered with kUnsupportedVersion (the envelope is forward-stable:
// only bodies may change shape between versions). Unknown message types
// get kUnsupportedType. Neither closes the connection — frame boundaries
// are still trustworthy. A frame that fails its length or CRC check is not
// trustworthy, and the server drops the connection instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rating/types.h"
#include "service/metrics.h"

namespace p2prep::rpc {

inline constexpr std::uint8_t kProtocolVersion = 1;
/// u32 payload_len + u32 crc32.
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Default cap on one frame's payload; a peer announcing more is treated
/// as corrupt (protects the read buffer from a hostile 4 GiB length).
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;
/// High bit of the msg_type byte marks a response.
inline constexpr std::uint8_t kResponseBit = 0x80;
/// Hard cap on ratings in one SubmitBatch request. Decoders reject a
/// larger count outright — even when the frame really carries that many
/// bytes — so one request cannot stage an outsized allocation or hold a
/// server worker for an unbounded apply loop. (The bench sweet spot is
/// batch=256; the cap leaves two orders of magnitude of headroom.)
inline constexpr std::uint32_t kMaxBatchRatings = 1u << 16;
/// Hard cap on node ids in one QueryColluders response; the server's own
/// truncation cap is far below this.
inline constexpr std::uint32_t kMaxColluderIds = 1u << 20;

enum class MsgType : std::uint8_t {
  kPing = 1,
  kSubmitRating = 2,
  kSubmitBatch = 3,
  kQueryReputation = 4,
  kQueryColluders = 5,
  kGetMetrics = 6,
  /// Admin: change the shard count online (ReputationService::resize).
  kResize = 7,
  // Manager-to-manager surface of the multi-process cluster (src/cluster/).
  // Bodies live in cluster/protocol.h; the type values are registered here
  // so one byte space covers the whole deployment and to_string stays
  // exhaustive.
  /// Client/peer → holder: ingest one rating into its owner key range.
  kMgrInsert = 16,
  /// Primary → replica: synchronous copy of an accepted rating.
  kMgrReplicate = 17,
  /// Peer → holder: pull a whole key range's checkpoint-encoded state.
  kMgrStatePull = 18,
  /// Coordinator → manager: apply a global epoch's colluder verdicts.
  kMgrColluderSet = 19,
  /// Any → any: ring membership, replication factor, liveness view.
  kMgrRingInfo = 20,
  /// Restarted manager → peers: resynced and serving again.
  kMgrRejoin = 21,
  /// Holder → lagging holder: replication copies were missed while the
  /// receiver was unreachable; re-pull the named range from the other
  /// holders now. Response has no body.
  kMgrResyncHint = 22,
  /// Server-initiated: connection refused (max_connections) or about to
  /// be torn down. Always sent as a response with request_id 0.
  kGoAway = 0x7f,
};

enum class Status : std::uint8_t {
  kOk = 0,
  /// Overload shed: ingest queues saturated or the inflight budget is
  /// exhausted. The response's backoff_hint_ms tells the client how long
  /// to wait before retrying.
  kRetryLater = 1,
  kInvalidArgument = 2,
  kUnsupportedVersion = 3,
  kUnsupportedType = 4,
  kShuttingDown = 5,
  kInternal = 6,
};

[[nodiscard]] std::string_view to_string(Status s) noexcept;
[[nodiscard]] std::string_view to_string(MsgType t) noexcept;

// --- Byte-level helpers (little-endian) ------------------------------------

/// Appends little-endian scalars to a byte string.
void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);

/// Bytes one encoded rating occupies (u32 rater + u32 ratee + u8 score +
/// u64 tick) — shared by SubmitBatch's and the cluster codecs' count
/// guards.
inline constexpr std::size_t kRatingBytes = 17;

/// Appends one rating in the canonical 17-byte wire layout (score travels
/// with the WAL's +1 bias: -1/0/+1 as 0/1/2).
void put_rating(std::string& out, const rating::Rating& r);
/// Reads one rating; false on underrun or an out-of-range score byte.
[[nodiscard]] bool get_rating(class Reader& r, rating::Rating& out);

/// Bounds-checked little-endian reader; get_* return false on underrun and
/// leave the cursor unmoved past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool get_u8(std::uint8_t& v);
  [[nodiscard]] bool get_u16(std::uint16_t& v);
  [[nodiscard]] bool get_u32(std::uint32_t& v);
  [[nodiscard]] bool get_u64(std::uint64_t& v);
  [[nodiscard]] bool get_f64(double& v);
  /// Reads `n` raw bytes into `out` (replacing its contents); false on
  /// underrun with the cursor unmoved. Callers validate `n` against
  /// remaining() *before* any allocation it sizes.
  [[nodiscard]] bool get_bytes(std::string& out, std::size_t n);
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- Framing ---------------------------------------------------------------

/// Wraps `payload` in the length+CRC frame header.
[[nodiscard]] std::string encode_frame(std::string_view payload);

enum class FrameResult : std::uint8_t {
  kFrame,     ///< One complete, CRC-clean frame was extracted.
  kNeedMore,  ///< The buffer holds only a prefix; read more bytes.
  kError,     ///< Oversized length or CRC mismatch; the stream is corrupt.
};

/// Attempts to extract the first frame from `buffer`. On kFrame, `payload`
/// views the payload bytes inside `buffer` (valid until the buffer
/// changes) and `consumed` is the total frame size to erase. On kError,
/// `error` (when non-null) describes the corruption.
FrameResult try_decode_frame(std::string_view buffer,
                             std::uint32_t max_frame_bytes,
                             std::string_view* payload, std::size_t* consumed,
                             std::string* error = nullptr);

// --- Envelope --------------------------------------------------------------

struct RequestHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;  ///< Raw byte; may not name a known MsgType.
  std::uint64_t request_id = 0;
};

struct ResponseHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;  ///< Request's type byte (response bit stripped).
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  std::uint32_t backoff_hint_ms = 0;
};

/// Appends a request envelope; body bytes follow.
void encode_request_header(std::string& out, MsgType type,
                           std::uint64_t request_id);
/// Appends a response envelope; body bytes follow.
void encode_response_header(std::string& out, const ResponseHeader& h);

/// Decodes a request envelope. Fails only on underrun — an unknown type or
/// version is reported through the header so the server can answer with
/// the right status instead of dropping the connection.
[[nodiscard]] bool decode_request_header(Reader& r, RequestHeader& h);
/// Decodes a response envelope; fails on underrun or if the response bit
/// is missing from the type byte.
[[nodiscard]] bool decode_response_header(Reader& r, ResponseHeader& h);

// --- Message bodies --------------------------------------------------------
// Requests/responses with no fields beyond the envelope (Ping, GoAway,
// QueryColluders request, GetMetrics request, SubmitRating response) have
// no body struct.

struct SubmitRatingRequest {
  rating::Rating rating;

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<SubmitRatingRequest> decode(Reader& r);
};

struct SubmitBatchRequest {
  std::vector<rating::Rating> ratings;

  void encode(std::string& out) const;
  /// Rejects a count field that exceeds the bytes actually present, so a
  /// hostile count cannot force a huge allocation.
  [[nodiscard]] static std::optional<SubmitBatchRequest> decode(Reader& r);
};

/// Batch outcome: the server stops at the first shed/shutdown, so
/// `accepted + rejected` ratings were consumed from the front of the batch
/// and the client resubmits the remainder (see RpcClient::submit_batch).
struct SubmitBatchResponse {
  std::uint32_t accepted = 0;  ///< Routed into shard queues.
  std::uint32_t rejected = 0;  ///< Invalid (self-rating / id out of range).

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<SubmitBatchResponse> decode(Reader& r);
};

struct QueryReputationRequest {
  rating::NodeId node = 0;

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<QueryReputationRequest> decode(Reader& r);
};

struct QueryReputationResponse {
  double reputation = 0.0;
  std::uint8_t suspected = 0;
  std::uint64_t epoch = 0;      ///< The published global epoch.
  std::uint32_t shard = 0;      ///< Owner shard index.

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<QueryReputationResponse> decode(
      Reader& r);
};

struct QueryColludersResponse {
  /// Suspected nodes, ascending, truncated to the server's response cap.
  std::vector<rating::NodeId> colluders;
  std::uint32_t total_suspected = 0;  ///< Service-wide count (pre-cap).
  std::uint8_t truncated = 0;

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<QueryColludersResponse> decode(
      Reader& r);
};

struct GetMetricsResponse {
  service::ServiceMetrics metrics;

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<GetMetricsResponse> decode(Reader& r);
};

struct ResizeRequest {
  std::uint32_t new_num_shards = 0;

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<ResizeRequest> decode(Reader& r);
};

struct ResizeResponse {
  std::uint32_t num_shards = 0;    ///< Live shard count after the call.
  std::uint64_t keys_moved = 0;    ///< Nodes whose owner shard changed.
  std::uint64_t duration_ms = 0;   ///< Handoff window, rounded to ms.

  void encode(std::string& out) const;
  [[nodiscard]] static std::optional<ResizeResponse> decode(Reader& r);
};

}  // namespace p2prep::rpc
