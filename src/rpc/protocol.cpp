#include "rpc/protocol.h"

#include <bit>
#include <cstring>

#include "service/wal.h"  // crc32 — the WAL framing checksum

namespace p2prep::rpc {

std::string_view to_string(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRetryLater: return "retry-later";
    case Status::kInvalidArgument: return "invalid-argument";
    case Status::kUnsupportedVersion: return "unsupported-version";
    case Status::kUnsupportedType: return "unsupported-type";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kInternal: return "internal";
  }
  return "?";
}

std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kPing: return "ping";
    case MsgType::kSubmitRating: return "submit-rating";
    case MsgType::kSubmitBatch: return "submit-batch";
    case MsgType::kQueryReputation: return "query-reputation";
    case MsgType::kQueryColluders: return "query-colluders";
    case MsgType::kGetMetrics: return "get-metrics";
    case MsgType::kResize: return "resize";
    case MsgType::kMgrInsert: return "mgr-insert";
    case MsgType::kMgrReplicate: return "mgr-replicate";
    case MsgType::kMgrStatePull: return "mgr-state-pull";
    case MsgType::kMgrColluderSet: return "mgr-colluder-set";
    case MsgType::kMgrRingInfo: return "mgr-ring-info";
    case MsgType::kMgrRejoin: return "mgr-rejoin";
    case MsgType::kMgrResyncHint: return "mgr-resync-hint";
    case MsgType::kGoAway: return "go-away";
  }
  return "?";
}

// --- Byte-level helpers ----------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

bool Reader::get_u8(std::uint8_t& v) {
  if (pos_ + 1 > data_.size()) return false;
  v = static_cast<std::uint8_t>(data_[pos_++]);
  return true;
}

bool Reader::get_u16(std::uint16_t& v) {
  if (pos_ + 2 > data_.size()) return false;
  v = 0;
  for (std::size_t i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
                << (8 * i));
  pos_ += 2;
  return true;
}

bool Reader::get_u32(std::uint32_t& v) {
  if (pos_ + 4 > data_.size()) return false;
  v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  pos_ += 4;
  return true;
}

bool Reader::get_u64(std::uint64_t& v) {
  if (pos_ + 8 > data_.size()) return false;
  v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  pos_ += 8;
  return true;
}

bool Reader::get_f64(double& v) {
  std::uint64_t bits = 0;
  if (!get_u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

bool Reader::get_bytes(std::string& out, std::size_t n) {
  if (pos_ + n > data_.size()) return false;
  out.assign(data_.substr(pos_, n));
  pos_ += n;
  return true;
}

// --- Framing ---------------------------------------------------------------

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, service::crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

FrameResult try_decode_frame(std::string_view buffer,
                             std::uint32_t max_frame_bytes,
                             std::string_view* payload, std::size_t* consumed,
                             std::string* error) {
  if (buffer.size() < kFrameHeaderBytes) return FrameResult::kNeedMore;
  Reader r(buffer);
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  (void)r.get_u32(len);
  (void)r.get_u32(crc);
  if (len > max_frame_bytes) {
    if (error != nullptr)
      *error = "frame length " + std::to_string(len) + " exceeds limit " +
               std::to_string(max_frame_bytes);
    return FrameResult::kError;
  }
  if (buffer.size() < kFrameHeaderBytes + len) return FrameResult::kNeedMore;
  const std::string_view body = buffer.substr(kFrameHeaderBytes, len);
  if (service::crc32(body.data(), body.size()) != crc) {
    if (error != nullptr) *error = "frame CRC mismatch";
    return FrameResult::kError;
  }
  *payload = body;
  *consumed = kFrameHeaderBytes + len;
  return FrameResult::kFrame;
}

// --- Envelope --------------------------------------------------------------

void encode_request_header(std::string& out, MsgType type,
                           std::uint64_t request_id) {
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u64(out, request_id);
}

void encode_response_header(std::string& out, const ResponseHeader& h) {
  put_u8(out, h.version);
  put_u8(out, static_cast<std::uint8_t>(h.type | kResponseBit));
  put_u64(out, h.request_id);
  put_u8(out, static_cast<std::uint8_t>(h.status));
  put_u32(out, h.backoff_hint_ms);
}

bool decode_request_header(Reader& r, RequestHeader& h) {
  return r.get_u8(h.version) && r.get_u8(h.type) && r.get_u64(h.request_id);
}

bool decode_response_header(Reader& r, ResponseHeader& h) {
  std::uint8_t status = 0;
  if (!r.get_u8(h.version) || !r.get_u8(h.type) || !r.get_u64(h.request_id) ||
      !r.get_u8(status) || !r.get_u32(h.backoff_hint_ms))
    return false;
  if ((h.type & kResponseBit) == 0) return false;
  h.type = static_cast<std::uint8_t>(h.type & ~kResponseBit);
  if (status > static_cast<std::uint8_t>(Status::kInternal)) return false;
  h.status = static_cast<Status>(status);
  return true;
}

// --- Message bodies --------------------------------------------------------

void put_rating(std::string& out, const rating::Rating& r) {
  put_u32(out, r.rater);
  put_u32(out, r.ratee);
  // Same +1 bias the WAL uses: scores -1/0/+1 travel as 0/1/2.
  put_u8(out, static_cast<std::uint8_t>(rating::score_value(r.score) + 1));
  put_u64(out, r.time);
}

bool get_rating(Reader& r, rating::Rating& out) {
  std::uint8_t score = 0;
  if (!r.get_u32(out.rater) || !r.get_u32(out.ratee) || !r.get_u8(score) ||
      !r.get_u64(out.time))
    return false;
  if (score > 2) return false;
  out.score = static_cast<rating::Score>(static_cast<int>(score) - 1);
  return true;
}

void SubmitRatingRequest::encode(std::string& out) const {
  put_rating(out, rating);
}

std::optional<SubmitRatingRequest> SubmitRatingRequest::decode(Reader& r) {
  SubmitRatingRequest req;
  if (!get_rating(r, req.rating)) return std::nullopt;
  return req;
}

void SubmitBatchRequest::encode(std::string& out) const {
  put_u32(out, static_cast<std::uint32_t>(ratings.size()));
  for (const auto& r : ratings) put_rating(out, r);
}

std::optional<SubmitBatchRequest> SubmitBatchRequest::decode(Reader& r) {
  std::uint32_t count = 0;
  if (!r.get_u32(count)) return std::nullopt;
  if (count > kMaxBatchRatings ||
      static_cast<std::size_t>(count) * kRatingBytes > r.remaining())
    return std::nullopt;
  SubmitBatchRequest req;
  req.ratings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    rating::Rating rt;
    if (!get_rating(r, rt)) return std::nullopt;
    req.ratings.push_back(rt);
  }
  return req;
}

void SubmitBatchResponse::encode(std::string& out) const {
  put_u32(out, accepted);
  put_u32(out, rejected);
}

std::optional<SubmitBatchResponse> SubmitBatchResponse::decode(Reader& r) {
  SubmitBatchResponse resp;
  if (!r.get_u32(resp.accepted) || !r.get_u32(resp.rejected))
    return std::nullopt;
  return resp;
}

void QueryReputationRequest::encode(std::string& out) const {
  put_u32(out, node);
}

std::optional<QueryReputationRequest> QueryReputationRequest::decode(
    Reader& r) {
  QueryReputationRequest req;
  if (!r.get_u32(req.node)) return std::nullopt;
  return req;
}

void QueryReputationResponse::encode(std::string& out) const {
  put_f64(out, reputation);
  put_u8(out, suspected);
  put_u64(out, epoch);
  put_u32(out, shard);
}

std::optional<QueryReputationResponse> QueryReputationResponse::decode(
    Reader& r) {
  QueryReputationResponse resp;
  if (!r.get_f64(resp.reputation) || !r.get_u8(resp.suspected) ||
      !r.get_u64(resp.epoch) || !r.get_u32(resp.shard))
    return std::nullopt;
  return resp;
}

void QueryColludersResponse::encode(std::string& out) const {
  put_u32(out, static_cast<std::uint32_t>(colluders.size()));
  for (rating::NodeId id : colluders) put_u32(out, id);
  put_u32(out, total_suspected);
  put_u8(out, truncated);
}

std::optional<QueryColludersResponse> QueryColludersResponse::decode(
    Reader& r) {
  std::uint32_t count = 0;
  if (!r.get_u32(count)) return std::nullopt;
  if (count > kMaxColluderIds ||
      static_cast<std::size_t>(count) * 4 > r.remaining())
    return std::nullopt;
  QueryColludersResponse resp;
  resp.colluders.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    rating::NodeId id = 0;
    if (!r.get_u32(id)) return std::nullopt;
    resp.colluders.push_back(id);
  }
  if (!r.get_u32(resp.total_suspected) || !r.get_u8(resp.truncated))
    return std::nullopt;
  return resp;
}

namespace {
// Per-type codec steps for ServiceMetrics::for_each_field.
void put_field(std::string& out, std::uint64_t v) { put_u64(out, v); }
void put_field(std::string& out, double v) { put_f64(out, v); }
bool get_field(Reader& r, std::uint64_t& v) { return r.get_u64(v); }
bool get_field(Reader& r, double& v) { return r.get_f64(v); }
}  // namespace

void GetMetricsResponse::encode(std::string& out) const {
  service::ServiceMetrics::for_each_field(
      metrics, [&](auto, auto, auto value) { put_field(out, value); });
}

std::optional<GetMetricsResponse> GetMetricsResponse::decode(Reader& r) {
  GetMetricsResponse resp;
  bool ok = true;
  service::ServiceMetrics::for_each_field(
      resp.metrics,
      [&](auto, auto, auto& field) { ok = ok && get_field(r, field); });
  if (!ok) return std::nullopt;
  return resp;
}

void ResizeRequest::encode(std::string& out) const {
  put_u32(out, new_num_shards);
}

std::optional<ResizeRequest> ResizeRequest::decode(Reader& r) {
  ResizeRequest req;
  if (!r.get_u32(req.new_num_shards)) return std::nullopt;
  return req;
}

void ResizeResponse::encode(std::string& out) const {
  put_u32(out, num_shards);
  put_u64(out, keys_moved);
  put_u64(out, duration_ms);
}

std::optional<ResizeResponse> ResizeResponse::decode(Reader& r) {
  ResizeResponse resp;
  if (!r.get_u32(resp.num_shards) || !r.get_u64(resp.keys_moved) ||
      !r.get_u64(resp.duration_ms))
    return std::nullopt;
  return resp;
}

}  // namespace p2prep::rpc
