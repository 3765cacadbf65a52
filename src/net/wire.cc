#include "src/net/wire.h"

#include <cstring>

#include "src/util/checkpoint.h"

namespace astraea {
namespace net {
namespace {

// Offset of the CRC field inside the common header. The CRC is computed over
// the whole frame with these four bytes zeroed, then patched in.
constexpr size_t kCrcOffset = 12;

class ByteWriter {
 public:
  ByteWriter(uint8_t* buf, size_t cap) : buf_(buf), cap_(cap) {}

  void U8(uint8_t v) { Put(&v, 1); }
  void U16(uint16_t v) {
    const uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
    Put(b, 2);
  }
  void U32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Put(b, 4);
  }
  void U64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Put(b, 8);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  bool ok() const { return ok_; }
  size_t size() const { return pos_; }

 private:
  void Put(const uint8_t* src, size_t n) {
    if (!ok_ || pos_ + n > cap_) {
      ok_ = false;
      return;
    }
    std::memcpy(buf_ + pos_, src, n);
    pos_ += n;
  }

  uint8_t* buf_;
  size_t cap_;
  size_t pos_ = 0;
  bool ok_ = true;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* buf, size_t len) : buf_(buf), len_(len) {}

  uint8_t U8() { return Get(1) ? buf_[pos_ - 1] : 0; }
  uint16_t U16() {
    if (!Get(2)) {
      return 0;
    }
    const uint8_t* b = buf_ + pos_ - 2;
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
  }
  uint32_t U32() {
    if (!Get(4)) {
      return 0;
    }
    const uint8_t* b = buf_ + pos_ - 4;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | b[i];
    }
    return v;
  }
  uint64_t U64() {
    if (!Get(8)) {
      return 0;
    }
    const uint8_t* b = buf_ + pos_ - 8;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | b[i];
    }
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }

 private:
  bool Get(size_t n) {
    if (!ok_ || pos_ + n > len_) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const uint8_t* buf_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Writes the common header with a zeroed CRC; PatchCrc fills it in once the
// body is serialized.
void WriteHeader(ByteWriter* w, FrameType type, uint16_t total_len, uint32_t flow_id) {
  w->U32(kWireMagic);
  w->U8(kWireVersion);
  w->U8(static_cast<uint8_t>(type));
  w->U16(total_len);
  w->U32(flow_id);
  w->U32(0);  // CRC placeholder
}

size_t PatchCrc(ByteWriter* w, uint8_t* buf) {
  if (!w->ok()) {
    return 0;
  }
  const size_t len = w->size();
  const uint32_t crc = Crc32(buf, len);
  for (int i = 0; i < 4; ++i) {
    buf[kCrcOffset + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return len;
}

uint64_t MixPayloadSeed(uint32_t flow_id, uint64_t seq) {
  uint64_t z = seq + 0x9E3779B97F4A7C15ULL * (flow_id + 1ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

size_t SerializeData(const DataFrame& frame, uint8_t* buf, size_t cap) {
  const size_t total = kDataHeaderBytes + frame.payload_len;
  if (total > kMaxFrameBytes || total > cap) {
    return 0;
  }
  ByteWriter w(buf, cap);
  WriteHeader(&w, FrameType::kData, static_cast<uint16_t>(total), frame.flow_id);
  w.U64(frame.seq);
  w.I64(frame.send_time);
  w.U64(frame.sent_bytes_total);
  w.U64(frame.sent_frames_total);
  if (!w.ok()) {
    return 0;
  }
  FillPayloadPattern(frame.flow_id, frame.seq, buf + kDataHeaderBytes, frame.payload_len);
  // CRC over header + body + payload, with the (still-zero) CRC field.
  const uint32_t crc = Crc32(buf, total);
  for (int i = 0; i < 4; ++i) {
    buf[kCrcOffset + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return total;
}

size_t SerializeAck(const AckFrame& frame, uint8_t* buf, size_t cap) {
  ByteWriter w(buf, cap);
  WriteHeader(&w, FrameType::kAck, kAckFrameBytes, frame.flow_id);
  w.U64(frame.cum_ack);
  w.U64(frame.ack_seq);
  w.I64(frame.echo_send_time);
  w.I64(frame.ack_delay);
  w.U64(frame.sack_bitmap);
  w.U32(frame.acked_count);
  w.U64(frame.received_bytes_total);
  w.U64(frame.received_frames_total);
  w.U32(frame.corrupt_frames_total);
  return PatchCrc(&w, buf);
}

size_t SerializeFin(const FinFrame& frame, bool is_ack, uint8_t* buf, size_t cap) {
  ByteWriter w(buf, cap);
  WriteHeader(&w, is_ack ? FrameType::kFinAck : FrameType::kFin, kFinFrameBytes, frame.flow_id);
  w.U64(frame.final_seq);
  return PatchCrc(&w, buf);
}

ParseStatus ParseFrame(const uint8_t* buf, size_t len, ParsedFrame* out) {
  if (len < kHeaderBytes) {
    return ParseStatus::kTruncated;
  }
  ByteReader r(buf, len);
  if (r.U32() != kWireMagic) {
    return ParseStatus::kBadMagic;
  }
  if (r.U8() != kWireVersion) {
    return ParseStatus::kBadVersion;
  }
  const uint8_t raw_type = r.U8();
  if (raw_type < static_cast<uint8_t>(FrameType::kData) ||
      raw_type > static_cast<uint8_t>(FrameType::kFinAck)) {
    return ParseStatus::kBadType;
  }
  const FrameType type = static_cast<FrameType>(raw_type);
  const uint16_t frame_len = r.U16();
  const uint32_t flow_id = r.U32();
  if (frame_len > len) {
    return ParseStatus::kTruncated;
  }
  if (frame_len != len) {
    return ParseStatus::kBadLength;  // one frame per datagram, no trailer
  }
  const uint32_t claimed_crc = r.U32();
  // Recompute over the frame with the CRC field zeroed. Crc32 has no
  // streaming API, so verify on a stack scratch copy (frames are bounded by
  // the u16 length field).
  uint8_t scratch[kMaxFrameBytes];
  std::memcpy(scratch, buf, frame_len);
  std::memset(scratch + kCrcOffset, 0, 4);
  if (Crc32(scratch, frame_len) != claimed_crc) {
    return ParseStatus::kBadCrc;
  }

  out->type = type;
  switch (type) {
    case FrameType::kData: {
      if (frame_len < kDataHeaderBytes) {
        return ParseStatus::kBadLength;
      }
      DataFrame& d = out->data;
      d = DataFrame{};
      d.flow_id = flow_id;
      d.seq = r.U64();
      d.send_time = r.I64();
      d.sent_bytes_total = r.U64();
      d.sent_frames_total = r.U64();
      d.payload_len = static_cast<uint16_t>(frame_len - kDataHeaderBytes);
      out->payload = buf + kDataHeaderBytes;
      out->payload_len = d.payload_len;
      break;
    }
    case FrameType::kAck: {
      if (frame_len != kAckFrameBytes) {
        return ParseStatus::kBadLength;
      }
      AckFrame& a = out->ack;
      a = AckFrame{};
      a.flow_id = flow_id;
      a.cum_ack = r.U64();
      a.ack_seq = r.U64();
      a.echo_send_time = r.I64();
      a.ack_delay = r.I64();
      a.sack_bitmap = r.U64();
      a.acked_count = r.U32();
      a.received_bytes_total = r.U64();
      a.received_frames_total = r.U64();
      a.corrupt_frames_total = r.U32();
      break;
    }
    case FrameType::kFin:
    case FrameType::kFinAck: {
      if (frame_len != kFinFrameBytes) {
        return ParseStatus::kBadLength;
      }
      out->fin = FinFrame{};
      out->fin.flow_id = flow_id;
      out->fin.final_seq = r.U64();
      break;
    }
  }
  return r.ok() ? ParseStatus::kOk : ParseStatus::kTruncated;
}

void FillPayloadPattern(uint32_t flow_id, uint64_t seq, uint8_t* dst, size_t len) {
  uint64_t state = MixPayloadSeed(flow_id, seq);
  for (size_t i = 0; i < len; ++i) {
    if (i % 8 == 0) {
      // xorshift64* step per 8-byte block: cheap and full-period.
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
    }
    dst[i] = static_cast<uint8_t>((state * 0x2545F4914F6CDD1DULL) >> (8 * (i % 8)));
  }
}

bool VerifyPayloadPattern(uint32_t flow_id, uint64_t seq, const uint8_t* src, size_t len) {
  uint8_t expected[kMaxFrameBytes];
  if (len > sizeof(expected)) {
    return false;
  }
  FillPayloadPattern(flow_id, seq, expected, len);
  return std::memcmp(src, expected, len) == 0;
}

}  // namespace net
}  // namespace astraea
