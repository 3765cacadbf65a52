#include "src/util/serialization.h"

#include <istream>
#include <ostream>

namespace astraea {

BinaryWriter::BinaryWriter(const std::string& path)
    : file_(path, std::ios::binary), out_(&file_) {
  if (!file_) {
    throw SerializationError("cannot open for writing: " + path);
  }
}

BinaryWriter::BinaryWriter(std::ostream* out) : out_(out) {
  if (out_ == nullptr || !out_->good()) {
    throw SerializationError("bad output stream for BinaryWriter");
  }
}

void BinaryWriter::WriteBytes(const void* data, size_t n) {
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out_->good()) {
    throw SerializationError("checkpoint write failed (disk full or closed stream?)");
  }
}

void BinaryWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  if (!s.empty()) {
    WriteBytes(s.data(), s.size());
  }
}

void BinaryWriter::WriteFloatVec(const std::vector<float>& v) {
  WriteU64(v.size());
  if (!v.empty()) {
    WriteBytes(v.data(), v.size() * sizeof(float));
  }
}

void BinaryWriter::Flush() {
  out_->flush();
  if (!out_->good()) {
    throw SerializationError("checkpoint flush failed (disk full?)");
  }
}

namespace {

uint64_t StreamSize(std::istream* in) {
  const std::streampos cur = in->tellg();
  in->seekg(0, std::ios::end);
  const std::streampos end = in->tellg();
  in->seekg(cur == std::streampos(-1) ? std::streampos(0) : cur);
  if (end == std::streampos(-1) || !in->good()) {
    throw SerializationError("cannot determine checkpoint size (unseekable stream)");
  }
  return static_cast<uint64_t>(end);
}

}  // namespace

BinaryReader::BinaryReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_) {
  if (!file_) {
    throw SerializationError("cannot open for reading: " + path);
  }
  size_ = StreamSize(in_);
}

BinaryReader::BinaryReader(std::istream* in) : in_(in) {
  if (in_ == nullptr || !in_->good()) {
    throw SerializationError("bad input stream for BinaryReader");
  }
  size_ = StreamSize(in_);
}

uint64_t BinaryReader::remaining() {
  const std::streampos cur = in_->tellg();
  if (cur == std::streampos(-1)) {
    return 0;
  }
  const uint64_t offset = static_cast<uint64_t>(cur);
  return offset >= size_ ? 0 : size_ - offset;
}

void BinaryReader::CheckAvailable(uint64_t count, uint64_t elem_size, const char* what) {
  // Divide instead of multiplying so a forged 64-bit count cannot overflow.
  if (count > remaining() / elem_size) {
    throw SerializationError(std::string("checkpoint length prefix for ") + what +
                             " exceeds remaining file size (corrupt checkpoint)");
  }
}

template <typename T>
T BinaryReader::ReadPod() {
  T v{};
  in_->read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in_->good()) {
    throw SerializationError("unexpected end of checkpoint");
  }
  return v;
}

uint32_t BinaryReader::ReadU32() { return ReadPod<uint32_t>(); }
uint64_t BinaryReader::ReadU64() { return ReadPod<uint64_t>(); }
float BinaryReader::ReadF32() { return ReadPod<float>(); }
double BinaryReader::ReadF64() { return ReadPod<double>(); }

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadU64();
  CheckAvailable(n, 1, "string");
  std::string s(n, '\0');
  if (n != 0) {
    in_->read(s.data(), static_cast<std::streamsize>(n));
    if (!in_->good()) {
      throw SerializationError("unexpected end of checkpoint");
    }
  }
  return s;
}

std::vector<float> BinaryReader::ReadFloatVec() {
  const uint64_t n = ReadU64();
  CheckAvailable(n, sizeof(float), "float vector");
  std::vector<float> v(n);
  if (n != 0) {
    in_->read(reinterpret_cast<char*>(v.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
    if (!in_->good()) {
      throw SerializationError("unexpected end of checkpoint");
    }
  }
  return v;
}

}  // namespace astraea
