#include "service/wal.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace p2prep::service {

namespace {

constexpr std::array<char, 8> kWalMagic = {'P', '2', 'P', 'W',
                                           'A', 'L', '2', '\0'};
constexpr std::array<char, 8> kCkptMagic = {'P', '2', 'P', 'C',
                                            'K', 'P', 'T', '2'};
constexpr std::size_t kFrameBytes = 8;  // u32 len + u32 crc

static_assert(kWalHeaderBytes == 8 + 8 + 8 + 4,
              "header = magic + generation + map_epoch + num_shards");

// --- Little-endian encoding into / out of byte strings ---

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Sequential reader over a byte string; get_* return false on underrun.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;

  [[nodiscard]] bool get_u8(std::uint8_t& v) {
    if (pos + 1 > data.size()) return false;
    v = static_cast<std::uint8_t>(data[pos++]);
    return true;
  }
  [[nodiscard]] bool get_u32(std::uint32_t& v) {
    if (pos + 4 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos += 4;
    return true;
  }
  [[nodiscard]] bool get_u64(std::uint64_t& v) {
    if (pos + 8 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos += 8;
    return true;
  }
  [[nodiscard]] bool done() const noexcept { return pos == data.size(); }
};

/// Appends the payload of `rec` to `out` (no frame header).
void encode_payload(std::string& out, const WalRecord& rec) {
  put_u8(out, static_cast<std::uint8_t>(rec.kind));
  if (rec.kind == WalRecordKind::kRating) {
    put_u32(out, rec.rating.rater);
    put_u32(out, rec.rating.ratee);
    put_u8(out,
           static_cast<std::uint8_t>(rating::score_value(rec.rating.score) + 1));
    put_u64(out, rec.rating.time);
  } else if (rec.kind == WalRecordKind::kShardMapChange) {
    put_u64(out, rec.epoch_seq);
    put_u32(out, rec.num_shards);
  } else if (rec.kind == WalRecordKind::kEpochMarker) {
    put_u64(out, rec.epoch_seq);
  }
}

/// Overwrites the four bytes at out[at] with `v`, little-endian.
void store_u32(std::string& out, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    out[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

bool decode_payload(std::string_view payload, WalRecord& rec) {
  Cursor c{payload};
  std::uint8_t kind = 0;
  if (!c.get_u8(kind)) return false;
  if (kind == static_cast<std::uint8_t>(WalRecordKind::kRating)) {
    rec.kind = WalRecordKind::kRating;
    std::uint8_t biased_score = 0;
    if (!c.get_u32(rec.rating.rater) || !c.get_u32(rec.rating.ratee) ||
        !c.get_u8(biased_score) || !c.get_u64(rec.rating.time))
      return false;
    if (biased_score > 2) return false;
    rec.rating.score = static_cast<rating::Score>(
        static_cast<int>(biased_score) - 1);
  } else if (kind == static_cast<std::uint8_t>(WalRecordKind::kEpochMarker)) {
    rec.kind = WalRecordKind::kEpochMarker;
    if (!c.get_u64(rec.epoch_seq)) return false;
  } else if (kind ==
             static_cast<std::uint8_t>(WalRecordKind::kShardMapChange)) {
    rec.kind = WalRecordKind::kShardMapChange;
    if (!c.get_u64(rec.epoch_seq) || !c.get_u32(rec.num_shards)) return false;
  } else {
    return false;
  }
  return c.done();
}

std::string encode_header(std::uint64_t generation, std::uint64_t map_epoch,
                          std::uint32_t num_shards) {
  std::string header;
  append_wal_header(header, generation, map_epoch, num_shards);
  return header;
}

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is
// the classic byte-at-a-time table; row k maps a byte to its CRC
// contribution followed by k zero bytes, so one step folds 8 input bytes.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}();

/// Little-endian u32 at `p`, whatever the host order and alignment.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void append_wal_header(std::string& out, std::uint64_t generation,
                       std::uint64_t map_epoch, std::uint32_t num_shards) {
  out.append(kWalMagic.data(), kWalMagic.size());
  put_u64(out, generation);
  put_u64(out, map_epoch);
  put_u32(out, num_shards);
}

void append_wal_frame(std::string& out, const WalRecord& rec) {
  // The payload is encoded in place after a placeholder frame header,
  // which is then filled in with its length and CRC.
  const std::size_t frame_at = out.size();
  out.append(kFrameBytes, '\0');
  encode_payload(out, rec);
  const std::size_t payload_at = frame_at + kFrameBytes;
  const std::size_t payload_len = out.size() - payload_at;
  store_u32(out, frame_at, static_cast<std::uint32_t>(payload_len));
  store_u32(out, frame_at + 4, crc32(out.data() + payload_at, payload_len));
}

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  const auto& t = kCrcTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ crc;
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len)
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      out_(std::move(other.out_)),
      generation_(other.generation_),
      map_epoch_(other.map_epoch_),
      num_shards_(other.num_shards_),
      records_(other.records_),
      bytes_(other.bytes_) {}

WalWriter WalWriter::create(const std::string& path, std::uint64_t generation,
                            std::uint64_t map_epoch,
                            std::uint32_t num_shards) {
  WalWriter w;
  w.path_ = path;
  {
    util::MutexLock lock(w.mu_);
    w.generation_ = generation;
    w.map_epoch_ = map_epoch;
    w.num_shards_ = num_shards;
    w.out_.open(path, std::ios::binary | std::ios::trunc);
    if (!w.out_) throw std::runtime_error("wal: cannot create " + path);
    const std::string header =
        encode_header(generation, map_epoch, num_shards);
    w.out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    w.out_.flush();
    w.bytes_ = header.size();
  }
  return w;
}

WalWriter WalWriter::resume(const std::string& path, std::uint64_t generation,
                            std::uint64_t map_epoch, std::uint32_t num_shards,
                            std::uint64_t valid_bytes,
                            std::uint64_t valid_records) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("wal: cannot stat " + path);
  if (size > valid_bytes) {
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) throw std::runtime_error("wal: cannot truncate " + path);
  }
  WalWriter w;
  w.path_ = path;
  {
    util::MutexLock lock(w.mu_);
    w.generation_ = generation;
    w.map_epoch_ = map_epoch;
    w.num_shards_ = num_shards;
    w.records_ = valid_records;
    w.bytes_ = valid_bytes;
    w.out_.open(path, std::ios::binary | std::ios::app);
    if (!w.out_) throw std::runtime_error("wal: cannot reopen " + path);
  }
  return w;
}

void WalWriter::append(const WalRecord& rec) {
  frame_.clear();  // keeps its capacity: no allocation per record
  append_wal_frame(frame_, rec);
  append_frames(frame_, 1);
}

void WalWriter::append_frames(std::string_view frames, std::uint64_t records) {
  util::MutexLock lock(mu_);
  out_.write(frames.data(), static_cast<std::streamsize>(frames.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("wal: write failed on " + path_);
  records_ += records;
  bytes_ += frames.size();
}

void WalWriter::rotate() {
  util::MutexLock lock(mu_);
  rotate_locked();
}

void WalWriter::rotate(std::uint64_t map_epoch, std::uint32_t num_shards) {
  util::MutexLock lock(mu_);
  map_epoch_ = map_epoch;
  num_shards_ = num_shards;
  rotate_locked();
}

void WalWriter::rotate_locked() {
  out_.close();
  ++generation_;
  records_ = 0;
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("wal: cannot rotate " + path_);
  const std::string header =
      encode_header(generation_, map_epoch_, num_shards_);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  bytes_ = header.size();
}

WalReadResult read_wal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return parse_wal(content);
}

WalReadResult parse_wal(std::string_view content) {
  WalReadResult result;
  if (content.size() < kWalHeaderBytes ||
      !std::equal(kWalMagic.begin(), kWalMagic.end(), content.begin()))
    return result;

  Cursor c{content, kWalMagic.size()};
  if (!c.get_u64(result.generation) || !c.get_u64(result.map_epoch) ||
      !c.get_u32(result.num_shards))
    return result;
  result.found = true;
  result.valid_bytes = kWalHeaderBytes;

  while (!c.done()) {
    std::uint32_t len = 0, crc = 0;
    // A length beyond the record cap is treated exactly like a torn tail:
    // no real record is that large, and trusting it would make the reader
    // hash (and a naive reader allocate) attacker-chosen gigabytes.
    if (!c.get_u32(len) || !c.get_u32(crc) || len > kMaxWalRecordBytes ||
        c.pos + len > content.size()) {
      result.truncated_tail = true;
      break;
    }
    const std::string_view payload = content.substr(c.pos, len);
    if (crc32(payload.data(), payload.size()) != crc) {
      result.truncated_tail = true;
      break;
    }
    WalRecord rec;
    if (!decode_payload(payload, rec)) {
      result.truncated_tail = true;
      break;
    }
    c.pos += len;
    result.records.push_back(rec);
    result.end_offsets.push_back(c.pos);
    result.valid_bytes = c.pos;
  }
  return result;
}

std::string encode_checkpoint(const ShardCheckpoint& ckpt) {
  std::string payload;
  put_u64(payload, ckpt.wal_generation);
  put_u64(payload, ckpt.wal_records_applied);
  put_u64(payload, ckpt.map_epoch);
  put_u32(payload, ckpt.map_num_shards);
  put_u64(payload, ckpt.epochs_completed);
  put_u64(payload, ckpt.applied_total);
  put_u64(payload, ckpt.applied_since_epoch);
  put_u64(payload, ckpt.last_epoch_tick);
  put_u32(payload, static_cast<std::uint32_t>(ckpt.engine_blob.size()));
  payload += ckpt.engine_blob;
  put_u32(payload, static_cast<std::uint32_t>(ckpt.suppressed.size()));
  for (rating::NodeId id : ckpt.suppressed) put_u32(payload, id);
  put_u32(payload, static_cast<std::uint32_t>(ckpt.detected.size()));
  for (rating::NodeId id : ckpt.detected) put_u32(payload, id);
  put_u64(payload, ckpt.cells.size());
  for (const CheckpointCell& cell : ckpt.cells) {
    put_u32(payload, cell.ratee);
    put_u32(payload, cell.rater);
    put_u32(payload, cell.stats.total);
    put_u32(payload, cell.stats.positive);
    put_u32(payload, cell.stats.negative);
  }

  std::string blob(kCkptMagic.begin(), kCkptMagic.end());
  put_u32(blob, static_cast<std::uint32_t>(payload.size()));
  put_u32(blob, crc32(payload.data(), payload.size()));
  blob += payload;
  return blob;
}

bool write_checkpoint(const std::string& path, const ShardCheckpoint& ckpt) {
  const std::string blob = encode_checkpoint(ckpt);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<ShardCheckpoint> read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return parse_checkpoint(content);
}

std::optional<ShardCheckpoint> parse_checkpoint(std::string_view content) {
  if (content.size() < kCkptMagic.size() + kFrameBytes ||
      !std::equal(kCkptMagic.begin(), kCkptMagic.end(), content.begin()))
    return std::nullopt;

  Cursor header{content, kCkptMagic.size()};
  std::uint32_t len = 0, crc = 0;
  if (!header.get_u32(len) || !header.get_u32(crc) ||
      header.pos + len != content.size())
    return std::nullopt;
  const std::string_view payload = content.substr(header.pos, len);
  if (crc32(payload.data(), payload.size()) != crc) return std::nullopt;

  ShardCheckpoint ckpt;
  Cursor c{payload};
  std::uint32_t blob_len = 0;
  if (!c.get_u64(ckpt.wal_generation) ||
      !c.get_u64(ckpt.wal_records_applied) || !c.get_u64(ckpt.map_epoch) ||
      !c.get_u32(ckpt.map_num_shards) ||
      !c.get_u64(ckpt.epochs_completed) || !c.get_u64(ckpt.applied_total) ||
      !c.get_u64(ckpt.applied_since_epoch) ||
      !c.get_u64(ckpt.last_epoch_tick) || !c.get_u32(blob_len) ||
      c.pos + blob_len > payload.size())
    return std::nullopt;
  ckpt.engine_blob = payload.substr(c.pos, blob_len);
  c.pos += blob_len;

  // Every count below is validated against the bytes actually present
  // BEFORE the vector is sized: a checkpoint is adversary-presentable
  // input (an attacker with filesystem access can hand recovery anything),
  // and resize(count) on an unchecked u32/u64 would turn a 30-byte file
  // into a multi-GiB allocation. CRC alone does not help — the attacker
  // computes a valid CRC over the hostile counts.
  std::uint32_t count = 0;
  if (!c.get_u32(count) ||
      std::size_t{count} * 4 > payload.size() - c.pos)
    return std::nullopt;
  ckpt.suppressed.resize(count);
  for (auto& id : ckpt.suppressed)
    if (!c.get_u32(id)) return std::nullopt;
  if (!c.get_u32(count) ||
      std::size_t{count} * 4 > payload.size() - c.pos)
    return std::nullopt;
  ckpt.detected.resize(count);
  for (auto& id : ckpt.detected)
    if (!c.get_u32(id)) return std::nullopt;

  // 5 * u32 per cell on the wire.
  constexpr std::uint64_t kCellBytes = 20;
  std::uint64_t cell_count = 0;
  if (!c.get_u64(cell_count) ||
      cell_count > (payload.size() - c.pos) / kCellBytes)
    return std::nullopt;
  ckpt.cells.resize(cell_count);
  for (auto& cell : ckpt.cells) {
    if (!c.get_u32(cell.ratee) || !c.get_u32(cell.rater) ||
        !c.get_u32(cell.stats.total) || !c.get_u32(cell.stats.positive) ||
        !c.get_u32(cell.stats.negative))
      return std::nullopt;
  }
  if (!c.done()) return std::nullopt;
  return ckpt;
}

WalResume wal_resume_point(const std::optional<ShardCheckpoint>& ckpt,
                           const WalReadResult& wal) {
  if (!wal.found) return {0, ckpt ? ckpt->wal_generation + 1 : 0};
  WalResume out{0, wal.generation};
  if (!ckpt) return out;
  if (wal.generation < ckpt->wal_generation)
    throw std::runtime_error("recover: WAL generation " +
                             std::to_string(wal.generation) +
                             " older than checkpoint " +
                             std::to_string(ckpt->wal_generation));
  if (wal.generation == ckpt->wal_generation) {
    if (ckpt->wal_records_applied > wal.records.size())
      throw std::runtime_error(
          "recover: checkpoint claims more applied records than the WAL "
          "holds");
    out.first_record = ckpt->wal_records_applied;
  }
  return out;
}

}  // namespace p2prep::service
