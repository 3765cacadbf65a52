// Datagram wire format for the real-packet UDP data plane (DESIGN.md §13).
//
// Every frame — data, ACK, FIN, FIN-ACK — carries a fixed 16-byte header
// (magic, version, type, total length, flow id, CRC32 over the whole frame
// with the CRC field zeroed) followed by a fixed-layout little-endian body.
// Data frames additionally carry a deterministic pseudo-random payload
// pattern derived from (flow_id, seq), so the receiver can prove end-to-end
// content integrity independently of the CRC.
//
// Parsing is hostile-byte safe: ParseFrame never reads out of bounds and
// classifies every rejection (fuzz/fuzz_net_wire.cc drives it with arbitrary
// bytes). Serialization is bounds-checked and refuses undersized buffers.
//
// ACK frames carry the newest sequence received (`ack_seq`) plus a 64-bit
// SACK *history* bitmap over the window [ack_seq - 64, ack_seq - 1], so one
// delayed ACK covers many data frames and — because consecutive ACKs overlap
// — every received frame is reported ~32 times, making per-packet
// accounting robust to ACK loss. The window is anchored at the newest
// sequence rather than at a cumulative point because data frames are never
// retransmitted (bulk-transfer model): a cumulative anchor would pin at the
// first hole forever and stop describing later arrivals. `cum_ack` (first
// sequence not received, advanced past holes the receiver has given up on)
// rides along for statistics only. The receiver echoes the newest frame's
// send timestamp with its local hold time (`ack_delay`), letting the sender
// take a QUIC-style RTT sample with the delayed-ACK wait subtracted.

#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>

#include "src/util/time.h"

namespace astraea {
namespace net {

inline constexpr uint32_t kWireMagic = 0x41535452;  // "ASTR"
inline constexpr uint8_t kWireVersion = 1;

// Fixed sizes (bytes). The header is shared by all frame types.
inline constexpr size_t kHeaderBytes = 16;
inline constexpr size_t kDataHeaderBytes = kHeaderBytes + 32;  // + payload
inline constexpr size_t kAckFrameBytes = kHeaderBytes + 64;
inline constexpr size_t kFinFrameBytes = kHeaderBytes + 8;
inline constexpr size_t kMaxFrameBytes = 65535;  // length field is u16

enum class FrameType : uint8_t {
  kData = 1,
  kAck = 2,
  kFin = 3,     // sender -> receiver: transfer complete
  kFinAck = 4,  // receiver -> sender: FIN acknowledged
};

struct DataFrame {
  uint32_t flow_id = 0;
  uint64_t seq = 0;                // dense, starts at 0
  TimeNs send_time = 0;            // sender CLOCK_MONOTONIC at transmission
  uint64_t sent_bytes_total = 0;   // cumulative wire bytes incl. this frame
  uint64_t sent_frames_total = 0;  // cumulative data frames incl. this one
  uint16_t payload_len = 0;        // pattern bytes following the fixed part
};

struct AckFrame {
  uint32_t flow_id = 0;
  uint64_t cum_ack = 0;   // first seq not received (or given up on); stats only
  uint64_t ack_seq = 0;   // newest (highest) sequence received so far
  TimeNs echo_send_time = 0;  // send_time of the newest data frame
  TimeNs ack_delay = 0;       // receiver hold between that arrival and this ACK
  uint64_t sack_bitmap = 0;   // bit i set => seq ack_seq - 1 - i received
  uint32_t acked_count = 0;   // new data frames covered since the previous ACK
  uint64_t received_bytes_total = 0;  // cumulative payload bytes accepted
  uint64_t received_frames_total = 0;
  uint32_t corrupt_frames_total = 0;  // bad parse / CRC / payload pattern
};

struct FinFrame {
  uint32_t flow_id = 0;
  uint64_t final_seq = 0;  // total data frames in the transfer
};

// Why a frame was rejected; kOk means `out` is fully populated.
enum class ParseStatus {
  kOk,
  kTruncated,   // shorter than a header, or shorter than its length field
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadLength,   // length field inconsistent with the frame type
  kBadCrc,
};

struct ParsedFrame {
  FrameType type = FrameType::kData;
  DataFrame data;  // valid when type == kData
  AckFrame ack;    // valid when type == kAck
  FinFrame fin;    // valid when type == kFin / kFinAck
  // Data payload, pointing into the caller's buffer (valid when type == kData).
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
};

// Each serializer returns the number of bytes written, or 0 when `cap` is too
// small (or the data payload would overflow the u16 length field). For data
// frames the payload pattern is generated in place from (flow_id, seq).
size_t SerializeData(const DataFrame& frame, uint8_t* buf, size_t cap);
size_t SerializeAck(const AckFrame& frame, uint8_t* buf, size_t cap);
size_t SerializeFin(const FinFrame& frame, bool is_ack, uint8_t* buf, size_t cap);

// Bounds-checked parse of one datagram. Never throws, never reads past
// buf + len. Trailing bytes beyond the frame's length field are rejected as
// kBadLength (a datagram carries exactly one frame).
ParseStatus ParseFrame(const uint8_t* buf, size_t len, ParsedFrame* out);

// Deterministic payload pattern: byte j of frame (flow_id, seq) is
// a SplitMix-style mix of the three, so any reordering, truncation or
// corruption that survives the CRC still trips the content check.
void FillPayloadPattern(uint32_t flow_id, uint64_t seq, uint8_t* dst, size_t len);
bool VerifyPayloadPattern(uint32_t flow_id, uint64_t seq, const uint8_t* src, size_t len);

}  // namespace net
}  // namespace astraea

#endif  // SRC_NET_WIRE_H_
