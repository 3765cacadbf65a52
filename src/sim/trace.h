// Opt-in per-event tracing for the simulator: packet enqueue/dequeue/drop at
// every link, send/ACK/loss/RTO at every sender, and per-MTP cwnd/pacing and
// agent-action decisions. Events carry the simulated timestamp, the flow id,
// the link id (queue events) and two type-dependent doubles.
//
// Cost model: tracing is OFF unless a Tracer is attached (Network::SetTracer
// or the ASTRAEA_FORCE_TRACE env var); every instrumentation site is a single
// null-pointer test when off. When on, Record() appends to a pre-sized ring
// buffer and flushes to the sink only when the ring fills — no allocation, no
// RNG use and no event-queue interaction, so a traced run is bit-identical to
// an untraced run of the same seed (tests/trace_test.cc asserts this).
//
// Sinks: kBinary (fixed 41-byte little-endian records behind a magic+version
// header; see tools/trace_dump.cc), kJsonl (one object per line), kNone (ring
// only, keeps the most recent events in memory — used by the force-trace CI
// run and by tests).

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace astraea {

enum class TraceEventType : uint8_t {
  kEnqueue = 0,   // packet entered a link queue        a=size_bytes b=queued_bytes after
  kDequeue = 1,   // packet left the queue for service  a=size_bytes b=queued_bytes after
  kDrop = 2,      // queue discipline dropped a packet  a=size_bytes b=queued_bytes
  kSend = 3,      // sender emitted a data packet       a=size_bytes b=inflight_bytes after
  kAck = 4,       // ACK processed by the sender        a=rtt_ms     b=inflight_bytes after
  kLoss = 5,      // gap-detected loss batch            a=lost_bytes b=inflight_bytes after
  kRtoFire = 6,   // retransmission timeout fired       a=lost_bytes b=rto_ms
  kCwnd = 7,      // per-MTP window/pacing decision     a=cwnd_bytes b=pacing_bps
  kAction = 8,    // learning-agent action applied      a=action     b=cwnd_bytes after
  kEcnMark = 9,   // queue set CE on an ECT packet      a=size_bytes b=queued_bytes
};

// Stable lowercase name used in JSONL/CSV output.
const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  TimeNs time = 0;
  TraceEventType type = TraceEventType::kEnqueue;
  int32_t flow_id = -1;  // -1 when not attributable to a flow
  int32_t link_id = -1;  // -1 for endpoint events
  uint64_t seq = 0;      // packet sequence number, 0 when n/a
  double a = 0.0;
  double b = 0.0;
};

class Tracer {
 public:
  enum class Format { kBinary, kJsonl, kNone };

  // kBinary/kJsonl flush the ring to `path` whenever it fills and on Close();
  // kNone ignores `path` and keeps the most recent `ring_capacity` events.
  explicit Tracer(std::string path, Format format = Format::kBinary,
                  size_t ring_capacity = 1 << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(TimeNs time, TraceEventType type, int32_t flow_id, int32_t link_id, uint64_t seq,
              double a, double b);

  // Writes buffered events to the sink (no-op for kNone) and flushes the file.
  void Flush();
  // Flush + close the sink. Further Record() calls are dropped. Called by the
  // destructor; explicit Close() lets callers observe completion before
  // reading the file back. Returns false when a write, flush or close of the
  // sink failed at any point (a full disk, say), so the file is incomplete.
  bool Close();

  uint64_t recorded() const { return recorded_; }
  Format format() const { return format_; }
  const std::string& path() const { return path_; }

  // The in-memory ring (kNone: most recent events, oldest first; file formats:
  // events not yet flushed). Primarily for tests and the force-trace mode.
  std::vector<TraceEvent> BufferedEvents() const;

 private:
  void WriteOut(const TraceEvent& ev);
  void WriteHeader();

  std::string path_;
  Format format_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t ring_next_ = 0;    // kNone: next overwrite position once saturated
  bool ring_wrapped_ = false;
  std::FILE* file_ = nullptr;
  bool closed_ = false;
  bool write_failed_ = false;
  uint64_t recorded_ = 0;
};

// Parses an in-memory kBinary trace image (header + records). Throws
// std::runtime_error on a bad magic/version/record-size header, a truncated
// record or an unknown event type. ReadBinaryTrace is this plus the file
// read; the split exists so the parser itself can be fuzzed
// (fuzz/fuzz_trace.cc).
std::vector<TraceEvent> ParseBinaryTrace(const void* data, size_t size);

// Reads a kBinary trace file back into memory. Throws std::runtime_error on a
// bad magic/version or a truncated record. Shared by tools/trace_dump and the
// tests.
std::vector<TraceEvent> ReadBinaryTrace(const std::string& path);

}  // namespace astraea

#endif  // SRC_SIM_TRACE_H_
