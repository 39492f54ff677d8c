// Wire-format tests for the RPC protocol (rpc/protocol.h): scalar and
// body round trips, framing under truncation at every prefix length, CRC
// corruption at every byte offset, hostile length/count fields, and
// envelope versioning. These are the decoder's fuzz-ish adversarial suite —
// nothing here opens a socket.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "rating/types.h"
#include "rpc/protocol.h"
#include "service/metrics.h"

namespace p2prep::rpc {
namespace {

using rating::Rating;
using rating::Score;

TEST(RpcProtocol, ScalarRoundTrip) {
  std::string buf;
  put_u8(buf, 0xab);
  put_u16(buf, 0xbeef);
  put_u32(buf, 0xdeadbeefu);
  put_u64(buf, 0x0123456789abcdefull);
  put_f64(buf, -2.5);

  Reader r(buf);
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  double e = 0.0;
  ASSERT_TRUE(r.get_u8(a));
  ASSERT_TRUE(r.get_u16(b));
  ASSERT_TRUE(r.get_u32(c));
  ASSERT_TRUE(r.get_u64(d));
  ASSERT_TRUE(r.get_f64(e));
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefull);
  EXPECT_EQ(e, -2.5);
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.get_u8(a));  // underrun reported, not UB
}

TEST(RpcProtocol, ScalarsAreLittleEndian) {
  std::string buf;
  put_u32(buf, 0x04030201u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[0]), 1);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[3]), 4);
}

TEST(RpcProtocol, FrameRoundTrip) {
  const std::string framed = encode_frame("hello rpc");
  ASSERT_EQ(framed.size(), kFrameHeaderBytes + 9);

  std::string_view payload;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode_frame(framed, kDefaultMaxFrameBytes, &payload,
                             &consumed),
            FrameResult::kFrame);
  EXPECT_EQ(payload, "hello rpc");
  EXPECT_EQ(consumed, framed.size());
}

TEST(RpcProtocol, EmptyPayloadFrame) {
  const std::string framed = encode_frame("");
  std::string_view payload;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode_frame(framed, kDefaultMaxFrameBytes, &payload,
                             &consumed),
            FrameResult::kFrame);
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(consumed, kFrameHeaderBytes);
}

TEST(RpcProtocol, TruncationAtEveryPrefixNeedsMore) {
  const std::string framed = encode_frame("truncate me anywhere");
  for (std::size_t len = 0; len < framed.size(); ++len) {
    std::string_view payload;
    std::size_t consumed = 0;
    EXPECT_EQ(try_decode_frame(framed.substr(0, len), kDefaultMaxFrameBytes,
                               &payload, &consumed),
              FrameResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(RpcProtocol, CorruptionAtEveryByteNeverYieldsAFrame) {
  // Flipping any single byte must never produce a valid frame: payload or
  // CRC flips fail the checksum, length flips either shrink the payload
  // (CRC mismatch), grow it (kNeedMore), or blow the size cap (kError).
  const std::string framed = encode_frame("integrity matters here");
  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::string bad = framed;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    std::string_view payload;
    std::size_t consumed = 0;
    EXPECT_NE(try_decode_frame(bad, kDefaultMaxFrameBytes, &payload,
                               &consumed),
              FrameResult::kFrame)
        << "flipped byte " << i;
  }
}

TEST(RpcProtocol, OversizedLengthIsAnError) {
  std::string hostile;
  put_u32(hostile, std::numeric_limits<std::uint32_t>::max());  // 4 GiB claim
  put_u32(hostile, 0);
  std::string_view payload;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(try_decode_frame(hostile, kDefaultMaxFrameBytes, &payload,
                             &consumed, &error),
            FrameResult::kError);
  EXPECT_FALSE(error.empty());

  // A length just past the configured cap is equally corrupt, even though
  // the bytes are not present yet — the decoder must not wait for 4 GiB.
  std::string over;
  put_u32(over, 65);
  put_u32(over, 0);
  EXPECT_EQ(try_decode_frame(over, /*max_frame_bytes=*/64, &payload,
                             &consumed),
            FrameResult::kError);
}

TEST(RpcProtocol, BadCrcIsAnError) {
  std::string framed = encode_frame("payload");
  framed[4] = static_cast<char>(framed[4] ^ 0xff);  // CRC field
  std::string_view payload;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(try_decode_frame(framed, kDefaultMaxFrameBytes, &payload,
                             &consumed, &error),
            FrameResult::kError);
  EXPECT_NE(error.find("CRC"), std::string::npos);
}

TEST(RpcProtocol, BackToBackFramesDecodeInOrder) {
  std::string stream = encode_frame("first") + encode_frame("second");
  std::string_view payload;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode_frame(stream, kDefaultMaxFrameBytes, &payload,
                             &consumed),
            FrameResult::kFrame);
  EXPECT_EQ(payload, "first");
  stream.erase(0, consumed);
  ASSERT_EQ(try_decode_frame(stream, kDefaultMaxFrameBytes, &payload,
                             &consumed),
            FrameResult::kFrame);
  EXPECT_EQ(payload, "second");
  EXPECT_EQ(consumed, stream.size());
}

TEST(RpcProtocol, RequestHeaderRoundTrip) {
  std::string buf;
  encode_request_header(buf, MsgType::kSubmitBatch, 42);
  Reader r(buf);
  RequestHeader h;
  ASSERT_TRUE(decode_request_header(r, h));
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.type, static_cast<std::uint8_t>(MsgType::kSubmitBatch));
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_TRUE(r.done());
}

TEST(RpcProtocol, RequestHeaderReportsVersionSkewInsteadOfFailing) {
  // The envelope is forward-stable: a future version must still decode so
  // the server can answer kUnsupportedVersion rather than drop the link.
  std::string buf;
  put_u8(buf, kProtocolVersion + 7);
  put_u8(buf, static_cast<std::uint8_t>(MsgType::kPing));
  put_u64(buf, 1);
  Reader r(buf);
  RequestHeader h;
  ASSERT_TRUE(decode_request_header(r, h));
  EXPECT_EQ(h.version, kProtocolVersion + 7);
}

TEST(RpcProtocol, ResponseHeaderRoundTrip) {
  ResponseHeader in;
  in.type = static_cast<std::uint8_t>(MsgType::kSubmitRating);
  in.request_id = 7;
  in.status = Status::kRetryLater;
  in.backoff_hint_ms = 125;
  std::string buf;
  encode_response_header(buf, in);

  Reader r(buf);
  ResponseHeader out;
  ASSERT_TRUE(decode_response_header(r, out));
  EXPECT_EQ(out.type, static_cast<std::uint8_t>(MsgType::kSubmitRating));
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.status, Status::kRetryLater);
  EXPECT_EQ(out.backoff_hint_ms, 125u);
}

TEST(RpcProtocol, ResponseHeaderRequiresResponseBit) {
  std::string buf;
  encode_request_header(buf, MsgType::kPing, 1);  // no response bit
  put_u8(buf, 0);
  put_u32(buf, 0);
  Reader r(buf);
  ResponseHeader h;
  EXPECT_FALSE(decode_response_header(r, h));
}

TEST(RpcProtocol, SubmitRatingRoundTripIncludingNegativeScore) {
  for (const Score s : {Score::kNegative, Score::kNeutral, Score::kPositive}) {
    SubmitRatingRequest in;
    in.rating = Rating{3, 9, s, 12345};
    std::string buf;
    in.encode(buf);
    Reader r(buf);
    const auto out = SubmitRatingRequest::decode(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->rating.rater, 3u);
    EXPECT_EQ(out->rating.ratee, 9u);
    EXPECT_EQ(out->rating.score, s);
    EXPECT_EQ(out->rating.time, 12345u);
  }
}

TEST(RpcProtocol, SubmitRatingTruncatedAtEveryPrefixFails) {
  SubmitRatingRequest in;
  in.rating = Rating{1, 2, Score::kPositive, 3};
  std::string buf;
  in.encode(buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    Reader r(std::string_view(buf).substr(0, len));
    EXPECT_FALSE(SubmitRatingRequest::decode(r).has_value())
        << "prefix length " << len;
  }
}

TEST(RpcProtocol, SubmitBatchRoundTrip) {
  SubmitBatchRequest in;
  for (std::uint32_t k = 0; k < 9; ++k)
    in.ratings.push_back({k, k + 1,
                          k % 2 == 0 ? Score::kPositive : Score::kNegative,
                          100 + k});
  std::string buf;
  in.encode(buf);
  Reader r(buf);
  const auto out = SubmitBatchRequest::decode(r);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->ratings.size(), in.ratings.size());
  for (std::size_t k = 0; k < in.ratings.size(); ++k) {
    EXPECT_EQ(out->ratings[k].rater, in.ratings[k].rater);
    EXPECT_EQ(out->ratings[k].score, in.ratings[k].score);
    EXPECT_EQ(out->ratings[k].time, in.ratings[k].time);
  }
}

TEST(RpcProtocol, SubmitBatchHostileCountCannotForceAllocation) {
  // A count field claiming 2^32-1 ratings backed by zero bytes must be
  // rejected before any reserve()/resize() happens.
  std::string buf;
  put_u32(buf, std::numeric_limits<std::uint32_t>::max());
  Reader r(buf);
  EXPECT_FALSE(SubmitBatchRequest::decode(r).has_value());
}

TEST(RpcProtocol, QueryBodiesRoundTrip) {
  {
    QueryReputationRequest in;
    in.node = 77;
    std::string buf;
    in.encode(buf);
    Reader r(buf);
    const auto out = QueryReputationRequest::decode(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->node, 77u);
  }
  {
    QueryReputationResponse in;
    in.reputation = -3.25;
    in.suspected = 1;
    in.epoch = 12;
    in.shard = 2;
    std::string buf;
    in.encode(buf);
    Reader r(buf);
    const auto out = QueryReputationResponse::decode(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->reputation, -3.25);
    EXPECT_EQ(out->suspected, 1);
    EXPECT_EQ(out->epoch, 12u);
    EXPECT_EQ(out->shard, 2u);
  }
  {
    QueryColludersResponse in;
    in.colluders = {4, 9, 11};
    in.total_suspected = 100;
    in.truncated = 1;
    std::string buf;
    in.encode(buf);
    Reader r(buf);
    const auto out = QueryColludersResponse::decode(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->colluders, (std::vector<rating::NodeId>{4, 9, 11}));
    EXPECT_EQ(out->total_suspected, 100u);
    EXPECT_EQ(out->truncated, 1);
  }
}

/// Every ServiceMetrics field in wire order, typed, for exact comparison.
std::vector<std::variant<std::uint64_t, double>> fields_of(
    const service::ServiceMetrics& m) {
  std::vector<std::variant<std::uint64_t, double>> out;
  service::ServiceMetrics::for_each_field(
      m, [&](auto, auto, auto value) { out.emplace_back(value); });
  return out;
}

TEST(RpcProtocol, GetMetricsRoundTripCoversEveryField) {
  // Distinct values (doubles off the integer grid), so a dropped, swapped
  // or mistyped field cannot round-trip.
  GetMetricsResponse in;
  std::uint64_t next = 1;
  service::ServiceMetrics::for_each_field(
      in.metrics, [&](auto, auto, auto& field) {
        field = static_cast<std::remove_reference_t<decltype(field)>>(next++);
        if constexpr (std::is_same_v<decltype(field), double&>) field += 0.5;
      });
  const auto want = fields_of(in.metrics);
  ASSERT_EQ(want.size(), next - 1);

  std::string buf;
  in.encode(buf);
  EXPECT_EQ(buf.size(), want.size() * 8);
  Reader r(buf);
  const auto out = GetMetricsResponse::decode(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(fields_of(out->metrics), want);

  for (std::size_t len = 0; len < buf.size(); ++len) {
    Reader prefix(std::string_view(buf).substr(0, len));
    EXPECT_FALSE(GetMetricsResponse::decode(prefix).has_value()) << len;
  }
}

TEST(RpcProtocol, ResizeBodiesRoundTrip) {
  {
    ResizeRequest in;
    in.new_num_shards = 8;
    std::string buf;
    in.encode(buf);
    Reader r(buf);
    const auto out = ResizeRequest::decode(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->new_num_shards, 8u);
  }
  {
    ResizeResponse in;
    in.num_shards = 8;
    in.keys_moved = 1234;
    in.duration_ms = 56;
    std::string buf;
    in.encode(buf);
    Reader r(buf);
    const auto out = ResizeResponse::decode(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->num_shards, 8u);
    EXPECT_EQ(out->keys_moved, 1234u);
    EXPECT_EQ(out->duration_ms, 56u);
  }
  {
    Reader r(std::string_view("\x01", 1));  // underrun
    EXPECT_FALSE(ResizeRequest::decode(r).has_value());
  }
}

}  // namespace
}  // namespace p2prep::rpc
