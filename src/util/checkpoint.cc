#include "src/util/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/util/failpoint.h"

namespace astraea {

namespace {

// Slice-by-8 tables: kCrcTables[0][b] is the byte-at-a-time table (the CRC
// register after shifting in byte b), and kCrcTables[s][b] is that register
// after s more zero bytes, so eight bytes fold into the register with eight
// independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t s = 1; s < 8; ++s) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[s - 1][i];
      tables[s][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

// Little-endian 32-bit load from any alignment (a single load on x86).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// write(2) loop that survives partial writes and EINTR.
void WriteAllOrThrow(int fd, const char* data, size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw SerializationError(Errno("checkpoint write to " + path + " failed"));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string ReadAndVerify(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializationError("cannot open checkpoint: " + path);
  }
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    throw SerializationError("failed reading checkpoint: " + path);
  }
  return VerifyCheckpointBlob(std::move(blob), path);
}

}  // namespace

std::string VerifyCheckpointBlob(std::string blob, const std::string& name) {
  if (blob.size() < kCheckpointFooterSize) {
    throw SerializationError("checkpoint too short for footer: " + name);
  }
  const char* footer = blob.data() + blob.size() - kCheckpointFooterSize;
  uint64_t payload_size;
  uint32_t crc;
  uint32_t magic;
  std::memcpy(&payload_size, footer, sizeof(payload_size));
  std::memcpy(&crc, footer + 8, sizeof(crc));
  std::memcpy(&magic, footer + 12, sizeof(magic));
  if (magic != kCheckpointFooterMagic) {
    throw SerializationError("bad checkpoint footer magic: " + name);
  }
  if (payload_size != blob.size() - kCheckpointFooterSize) {
    throw SerializationError("checkpoint payload size mismatch (truncated?): " + name);
  }
  if (Crc32(blob.data(), payload_size) != crc) {
    throw SerializationError("checkpoint CRC mismatch (corrupt): " + name);
  }
  blob.resize(payload_size);
  return blob;
}

uint32_t Crc32(const void* data, size_t len) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t ReadSchemaHeader(BinaryReader* reader, uint32_t magic, uint32_t min_version,
                          uint32_t max_version, const std::string& what) {
  if (reader->ReadU32() != magic) {
    throw SerializationError("not a " + what + " checkpoint (bad magic)");
  }
  const uint32_t version = reader->ReadU32();
  if (version < min_version || version > max_version) {
    throw SerializationError("unsupported " + what + " checkpoint version " +
                             std::to_string(version));
  }
  return version;
}

void WriteFileDurably(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  ASTRAEA_FAILPOINT("ckpt.commit.begin");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw SerializationError(Errno("cannot create checkpoint tmp file " + tmp));
  }
  // Two half-writes with a failpoint between them let tests inject a torn
  // write — the on-disk state a real crash mid-write(2) would leave behind.
  const size_t half = bytes.size() / 2;
  WriteAllOrThrow(fd, bytes.data(), half, tmp);
  ASTRAEA_FAILPOINT("ckpt.commit.torn_write");
  WriteAllOrThrow(fd, bytes.data() + half, bytes.size() - half, tmp);
  ASTRAEA_FAILPOINT("ckpt.commit.before_fsync");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw SerializationError(Errno("fsync of checkpoint tmp file " + tmp + " failed"));
  }
  if (::close(fd) != 0) {
    throw SerializationError(Errno("close of checkpoint tmp file " + tmp + " failed"));
  }
  ASTRAEA_FAILPOINT("ckpt.commit.before_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SerializationError(Errno("rename " + tmp + " -> " + path + " failed"));
  }
  ASTRAEA_FAILPOINT("ckpt.commit.before_dirsync");
  // Make the directory entry durable too; without this the rename itself can
  // be lost on power failure even though both files' contents were synced.
  std::string dir = path;
  const size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd < 0) {
    throw SerializationError(Errno("cannot open checkpoint directory " + dir));
  }
  if (::fsync(dirfd) != 0) {
    const int saved = errno;
    ::close(dirfd);
    errno = saved;
    throw SerializationError(Errno("fsync of checkpoint directory " + dir + " failed"));
  }
  ::close(dirfd);
}

CheckpointWriter::CheckpointWriter(std::string path)
    : path_(std::move(path)), writer_(&buf_) {}

void CheckpointWriter::Commit() {
  if (committed_) {
    throw SerializationError("checkpoint already committed: " + path_);
  }
  std::string blob = buf_.str();
  const uint64_t payload_size = blob.size();
  const uint32_t crc = Crc32(blob.data(), blob.size());
  PutU64(&blob, payload_size);
  PutU32(&blob, crc);
  PutU32(&blob, kCheckpointFooterMagic);
  WriteFileDurably(path_, blob);
  committed_ = true;
}

CheckpointReader::CheckpointReader(const std::string& path)
    : buf_(ReadAndVerify(path)), reader_(&buf_) {}

}  // namespace astraea
