// Durable, corruption-evident checkpoint container.
//
// A checkpoint file is [payload bytes][footer]; the footer is
//   u64 payload_size | u32 crc32(payload) | u32 kFooterMagic
// (16 bytes, little-endian). The payload is an ordinary BinaryWriter stream;
// the container does not interpret it.
//
// Durability protocol (WriteFileDurably, which CheckpointWriter::Commit and
// the promotion gate's AtomicInstall both write through):
//   1. write the bytes to "<path>.tmp"
//   2. fsync the tmp file
//   3. rename(tmp, path)        — atomic on POSIX
//   4. fsync the parent directory
// A crash at any step leaves either the previous checkpoint intact (steps
// 1-3) or the new one fully in place (step 4); a torn write is caught by the
// CRC/footer check on load. Every step is failpoint-instrumented (see
// failpoint.h) so tests can prove this.
//
// CheckpointReader verifies footer magic, size and CRC up front and throws
// SerializationError on any mismatch — a corrupt checkpoint never parses.

#ifndef SRC_UTIL_CHECKPOINT_H_
#define SRC_UTIL_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/util/serialization.h"

namespace astraea {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the zlib convention:
// Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const void* data, size_t len);

// Payload schema header: every checkpoint payload leads with a u32 magic (the
// subsystem) and a u32 version. The helpers below are the one place the
// magic/version handshake lives, so every subsystem rejects foreign or
// future checkpoints with the same message shape. Byte-compatible with the
// hand-rolled WriteU32(magic)/WriteU32(version) pairs they replaced.
struct CheckpointSchema {
  uint32_t magic = 0;
  uint32_t version = 0;
};

inline void WriteSchemaHeader(BinaryWriter* writer, CheckpointSchema schema) {
  writer->WriteU32(schema.magic);
  writer->WriteU32(schema.version);
}

// Validates the magic and that version is in [min_version, max_version];
// returns the version read (so callers can branch on older layouts). `what`
// labels the error, typically "<subsystem> training-state (path)".
uint32_t ReadSchemaHeader(BinaryReader* reader, uint32_t magic, uint32_t min_version,
                          uint32_t max_version, const std::string& what);

inline constexpr uint32_t kCheckpointFooterMagic = 0x4153434Bu;  // "ASCK"
inline constexpr size_t kCheckpointFooterSize = 16;

// Verifies a whole checkpoint image (payload + footer) in memory — footer
// magic, payload size, CRC — and returns the payload bytes; throws
// SerializationError on any mismatch. `name` labels error messages (a path
// for files). CheckpointReader is the file read plus this; the split exists
// so the container format can be fuzzed (fuzz/fuzz_checkpoint.cc).
std::string VerifyCheckpointBlob(std::string blob, const std::string& name);

// Replaces `path` with `bytes` through the durability protocol above. Throws
// SerializationError on any I/O failure, leaving the previous file at `path`
// (if any) untouched until the rename.
void WriteFileDurably(const std::string& path, const std::string& bytes);

class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string path);

  // Payload sink; buffered in memory until Commit().
  BinaryWriter* payload() { return &writer_; }

  // Appends the footer and writes the file with WriteFileDurably(). Throws
  // SerializationError on any I/O failure (the previous checkpoint at `path`,
  // if any, is left untouched). Must be called at most once.
  void Commit();

 private:
  std::string path_;
  std::ostringstream buf_;
  BinaryWriter writer_;
  bool committed_ = false;
};

class CheckpointReader {
 public:
  // Reads the whole file and verifies footer magic, payload size and CRC;
  // throws SerializationError if anything is off.
  explicit CheckpointReader(const std::string& path);

  BinaryReader* payload() { return &reader_; }

 private:
  std::istringstream buf_;  // must be initialized before reader_
  BinaryReader reader_;
};

}  // namespace astraea

#endif  // SRC_UTIL_CHECKPOINT_H_
