// Tiny binary (de)serialization for model checkpoints.
//
// Format: little-endian PODs written in call order, preceded by a caller
// supplied magic + version pair so checkpoints fail loudly when the layout
// changes. No compression, no alignment games — checkpoints are small (a few
// hundred KB of float32 weights, plus the replay buffer for full training
// state).
//
// Error discipline: every Write* throws SerializationError as soon as the
// underlying stream goes bad (disk full, closed fd), and every Read* throws
// on EOF, on corrupt length prefixes, and on length prefixes that exceed the
// bytes actually remaining in the file — a corrupted checkpoint can never be
// silently truncated on write nor silently misread (or turned into a multi-GB
// allocation) on load.

#ifndef SRC_UTIL_SERIALIZATION_H_
#define SRC_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace astraea {

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);
  // Writes into a caller-owned stream (e.g. the in-memory payload buffer of
  // CheckpointWriter). The stream must outlive the writer.
  explicit BinaryWriter(std::ostream* out);

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloatVec(const std::vector<float>& v);

  // Flushes buffered bytes to the OS and throws SerializationError if the
  // stream is not healthy afterwards. File-backed savers must call this (or
  // rely on a throwing Write*) before declaring a checkpoint durable:
  // ofstream buffers internally, so a disk-full condition may only surface
  // at flush time.
  void Flush();

  bool ok() const { return out_->good(); }

 private:
  void WriteBytes(const void* data, size_t n);

  std::ofstream file_;       // used by the path constructor
  std::ostream* out_;        // always valid; points at file_ or a caller stream
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);
  // Reads from a caller-owned seekable stream (e.g. a checkpoint payload
  // held in memory). The stream must outlive the reader.
  explicit BinaryReader(std::istream* in);

  uint32_t ReadU32();
  uint64_t ReadU64();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  std::vector<float> ReadFloatVec();

  // Bytes left between the read cursor and end-of-stream. Length prefixes
  // are validated against this before any allocation.
  uint64_t remaining();

  bool ok() const { return in_->good(); }

 private:
  template <typename T>
  T ReadPod();
  // Throws unless at least `count * elem_size` bytes remain (overflow-safe).
  void CheckAvailable(uint64_t count, uint64_t elem_size, const char* what);

  std::ifstream file_;       // used by the path constructor
  std::istream* in_;         // always valid; points at file_ or a caller stream
  uint64_t size_ = 0;        // total stream size in bytes
};

// Thrown on checkpoint corruption / magic mismatch / failed writes.
class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace astraea

#endif  // SRC_UTIL_SERIALIZATION_H_
