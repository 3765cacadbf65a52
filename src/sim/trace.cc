#include "src/sim/trace.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/util/logging.h"

namespace astraea {

namespace {

constexpr uint32_t kTraceMagic = 0x43'52'54'41;  // "ATRC" little-endian
constexpr uint32_t kTraceVersion = 1;
// time(8) + type(1) + flow(4) + link(4) + seq(8) + a(8) + b(8)
constexpr uint32_t kRecordSize = 41;

void PutBytes(std::FILE* f, const void* p, size_t n) {
  if (std::fwrite(p, 1, n, f) != n) {
    // Tracing must never abort a simulation; the stream's error flag is
    // reported by Close().
  }
}

template <typename T>
void Put(std::FILE* f, T v) {
  PutBytes(f, &v, sizeof(v));
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kEnqueue:
      return "enqueue";
    case TraceEventType::kDequeue:
      return "dequeue";
    case TraceEventType::kDrop:
      return "drop";
    case TraceEventType::kSend:
      return "send";
    case TraceEventType::kAck:
      return "ack";
    case TraceEventType::kLoss:
      return "loss";
    case TraceEventType::kRtoFire:
      return "rto";
    case TraceEventType::kCwnd:
      return "cwnd";
    case TraceEventType::kAction:
      return "action";
    case TraceEventType::kEcnMark:
      return "ecn_mark";
  }
  return "unknown";
}

Tracer::Tracer(std::string path, Format format, size_t ring_capacity)
    : path_(std::move(path)), format_(format), capacity_(ring_capacity == 0 ? 1 : ring_capacity) {
  ring_.reserve(capacity_);
  if (format_ != Format::kNone) {
    ASTRAEA_CHECK(!path_.empty());
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr) {
      throw std::runtime_error("cannot open trace sink: " + path_);
    }
    WriteHeader();
  }
}

Tracer::~Tracer() { Close(); }

void Tracer::WriteHeader() {
  if (format_ != Format::kBinary) {
    return;
  }
  Put(file_, kTraceMagic);
  Put(file_, kTraceVersion);
  Put(file_, kRecordSize);
}

void Tracer::Record(TimeNs time, TraceEventType type, int32_t flow_id, int32_t link_id,
                    uint64_t seq, double a, double b) {
  if (closed_) {
    return;
  }
  TraceEvent ev;
  ev.time = time;
  ev.type = type;
  ev.flow_id = flow_id;
  ev.link_id = link_id;
  ev.seq = seq;
  ev.a = a;
  ev.b = b;
  ++recorded_;
  if (format_ == Format::kNone) {
    // Overwrite-oldest ring: keeps the tail of the run for post-mortems.
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[ring_next_] = ev;
      ring_next_ = (ring_next_ + 1) % capacity_;
      ring_wrapped_ = true;
    }
    return;
  }
  ring_.push_back(ev);
  if (ring_.size() >= capacity_) {
    Flush();
  }
}

void Tracer::WriteOut(const TraceEvent& ev) {
  if (format_ == Format::kBinary) {
    Put(file_, static_cast<int64_t>(ev.time));
    Put(file_, static_cast<uint8_t>(ev.type));
    Put(file_, ev.flow_id);
    Put(file_, ev.link_id);
    Put(file_, ev.seq);
    Put(file_, ev.a);
    Put(file_, ev.b);
    return;
  }
  std::fprintf(file_,
               "{\"t\":%lld,\"ev\":\"%s\",\"flow\":%d,\"link\":%d,\"seq\":%llu,"
               "\"a\":%.9g,\"b\":%.9g}\n",
               static_cast<long long>(ev.time), TraceEventTypeName(ev.type), ev.flow_id,
               ev.link_id, static_cast<unsigned long long>(ev.seq), ev.a, ev.b);
}

void Tracer::Flush() {
  if (format_ == Format::kNone || file_ == nullptr) {
    return;
  }
  for (const TraceEvent& ev : ring_) {
    WriteOut(ev);
  }
  ring_.clear();
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    write_failed_ = true;
  }
}

bool Tracer::Close() {
  if (closed_) {
    return !write_failed_;
  }
  Flush();
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) {
      write_failed_ = true;
    }
    file_ = nullptr;
  }
  closed_ = true;
  return !write_failed_;
}

std::vector<TraceEvent> Tracer::BufferedEvents() const {
  if (!ring_wrapped_) {
    return ring_;
  }
  // Rotate so the oldest retained event comes first.
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  return out;
}

std::vector<TraceEvent> ParseBinaryTrace(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  auto take = [&](void* out, size_t n, const char* what) {
    if (size - off < n) {
      throw std::runtime_error(std::string("truncated trace file (") + what + ")");
    }
    std::memcpy(out, p + off, n);
    off += n;
  };
  uint32_t magic = 0, version = 0, record_size = 0;
  take(&magic, sizeof(magic), "magic");
  take(&version, sizeof(version), "version");
  take(&record_size, sizeof(record_size), "record size");
  if (magic != kTraceMagic || version != kTraceVersion || record_size != kRecordSize) {
    throw std::runtime_error("not an astraea binary trace (bad header)");
  }
  std::vector<TraceEvent> events;
  while (off < size) {
    TraceEvent ev;
    int64_t time = 0;
    take(&time, sizeof(time), "record");
    ev.time = time;
    uint8_t type = 0;
    take(&type, sizeof(type), "record");
    if (type > static_cast<uint8_t>(TraceEventType::kEcnMark)) {
      throw std::runtime_error("unknown trace event type " + std::to_string(type));
    }
    ev.type = static_cast<TraceEventType>(type);
    take(&ev.flow_id, sizeof(ev.flow_id), "record");
    take(&ev.link_id, sizeof(ev.link_id), "record");
    take(&ev.seq, sizeof(ev.seq), "record");
    take(&ev.a, sizeof(ev.a), "record");
    take(&ev.b, sizeof(ev.b), "record");
    events.push_back(ev);
  }
  return events;
}

std::vector<TraceEvent> ReadBinaryTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  std::string blob;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw std::runtime_error("failed reading trace file: " + path);
  }
  try {
    return ParseBinaryTrace(blob.data(), blob.size());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + ": " + path);
  }
}

}  // namespace astraea
