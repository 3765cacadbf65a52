// Tests for the durable checkpoint container (src/util/checkpoint.h), the
// hardened serialization layer, and the failpoint registry.

#include "src/util/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/nn/mlp.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace astraea {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Writes a small structured checkpoint whose payload is parameterized by
// `marker`, and returns nothing; readable back via ReadMarkerCheckpoint.
void WriteMarkerCheckpoint(const std::string& path, uint32_t marker) {
  CheckpointWriter ckpt(path);
  BinaryWriter* w = ckpt.payload();
  w->WriteU32(marker);
  w->WriteString("astraea checkpoint test payload");
  std::vector<float> weights(37);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<float>(i) * 0.25f + static_cast<float>(marker);
  }
  w->WriteFloatVec(weights);
  w->WriteU64(0xDEADBEEFCAFEF00DULL);
  ckpt.Commit();
}

uint32_t ReadMarkerCheckpoint(const std::string& path) {
  CheckpointReader ckpt(path);
  BinaryReader* r = ckpt.payload();
  const uint32_t marker = r->ReadU32();
  EXPECT_EQ(r->ReadString(), "astraea checkpoint test payload");
  const std::vector<float> weights = r->ReadFloatVec();
  EXPECT_EQ(weights.size(), 37u);
  EXPECT_EQ(r->ReadU64(), 0xDEADBEEFCAFEF00DULL);
  return marker;
}

TEST(Crc32Test, KnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
}

TEST(CheckpointTest, RoundTrip) {
  const std::string path = "/tmp/astraea_ckpt_roundtrip.ckpt";
  WriteMarkerCheckpoint(path, 7);
  EXPECT_EQ(ReadMarkerCheckpoint(path), 7u);
}

TEST(CheckpointTest, UncommittedWriterLeavesOldCheckpointIntact) {
  const std::string path = "/tmp/astraea_ckpt_abandon.ckpt";
  WriteMarkerCheckpoint(path, 1);
  {
    CheckpointWriter abandoned(path);
    abandoned.payload()->WriteU32(999);
    // no Commit()
  }
  EXPECT_EQ(ReadMarkerCheckpoint(path), 1u);
  // A later successful commit overwrites both the file and any stale tmp.
  WriteMarkerCheckpoint(path, 2);
  EXPECT_EQ(ReadMarkerCheckpoint(path), 2u);
}

TEST(CheckpointTest, DoubleCommitThrows) {
  const std::string path = "/tmp/astraea_ckpt_double.ckpt";
  CheckpointWriter ckpt(path);
  ckpt.payload()->WriteU32(1);
  ckpt.Commit();
  EXPECT_THROW(ckpt.Commit(), SerializationError);
}

TEST(CheckpointTest, CommitIntoMissingDirectoryThrows) {
  CheckpointWriter ckpt("/tmp/astraea_no_such_dir_xyz/file.ckpt");
  ckpt.payload()->WriteU32(1);
  EXPECT_THROW(ckpt.Commit(), SerializationError);
}

TEST(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW(CheckpointReader r("/tmp/astraea_ckpt_does_not_exist.ckpt"),
               SerializationError);
}

// Satellite: fuzz-style corruption coverage. Every byte-truncation and every
// strided bit-flip of a valid checkpoint must throw SerializationError —
// never crash, never load silently.
TEST(CheckpointCorruptionTest, EveryTruncationThrows) {
  const std::string path = "/tmp/astraea_ckpt_trunc.ckpt";
  const std::string mutant = "/tmp/astraea_ckpt_trunc_mutant.ckpt";
  WriteMarkerCheckpoint(path, 3);
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kCheckpointFooterSize);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(mutant, bytes.substr(0, len));
    EXPECT_THROW(CheckpointReader r(mutant), SerializationError) << "length " << len;
  }
}

TEST(CheckpointCorruptionTest, EveryBitFlipThrows) {
  const std::string path = "/tmp/astraea_ckpt_flip.ckpt";
  const std::string mutant = "/tmp/astraea_ckpt_flip_mutant.ckpt";
  WriteMarkerCheckpoint(path, 4);
  const std::string bytes = ReadFileBytes(path);
  for (size_t off = 0; off < bytes.size(); ++off) {
    for (int bit : {0, 3, 7}) {
      std::string corrupted = bytes;
      corrupted[off] = static_cast<char>(corrupted[off] ^ (1 << bit));
      WriteFileBytes(mutant, corrupted);
      EXPECT_THROW(CheckpointReader r(mutant), SerializationError)
          << "offset " << off << " bit " << bit;
    }
  }
}

// The legacy actor-only format (no CRC) still has to fail loudly on
// truncation: the reader's bounds checks must throw, never return garbage
// vectors or attempt absurd allocations.
TEST(CheckpointCorruptionTest, LegacyActorTruncationThrows) {
  const std::string path = "/tmp/astraea_legacy_actor.ckpt";
  const std::string mutant = "/tmp/astraea_legacy_actor_mutant.ckpt";
  Rng rng(3);
  Mlp net({4, 8, 8, 1}, OutputActivation::kTanh, &rng);
  {
    BinaryWriter w(path);
    net.Save(&w);
    w.Flush();
  }
  const std::string bytes = ReadFileBytes(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(mutant, bytes.substr(0, len));
    BinaryReader r(mutant);
    EXPECT_THROW(Mlp::Load(&r), SerializationError) << "length " << len;
  }
}

TEST(SerializationBoundsTest, HugeLengthPrefixRejectedBeforeAllocation) {
  const std::string path = "/tmp/astraea_huge_len.bin";
  {
    BinaryWriter w(path);
    // Claims ~2^61 floats but the file ends right after the prefix.
    w.WriteU64(0x2000'0000'0000'0000ULL);
    w.Flush();
  }
  BinaryReader r(path);
  EXPECT_THROW(r.ReadFloatVec(), SerializationError);

  BinaryReader r2(path);
  EXPECT_THROW(r2.ReadString(), SerializationError);
}

TEST(SerializationBoundsTest, LengthJustPastEofRejected) {
  const std::string path = "/tmp/astraea_off_by_one.bin";
  {
    BinaryWriter w(path);
    w.WriteU64(3);  // claims 3 floats
    w.WriteF32(1.0f);
    w.WriteF32(2.0f);  // only 2 present
    w.Flush();
  }
  BinaryReader r(path);
  EXPECT_THROW(r.ReadFloatVec(), SerializationError);
}

TEST(SerializationBoundsTest, RemainingTracksCursor) {
  const std::string path = "/tmp/astraea_remaining.bin";
  {
    BinaryWriter w(path);
    w.WriteU32(1);
    w.WriteU64(2);
    w.Flush();
  }
  BinaryReader r(path);
  EXPECT_EQ(r.remaining(), 12u);
  r.ReadU32();
  EXPECT_EQ(r.remaining(), 8u);
  r.ReadU64();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializationTest, WriterToFullDeviceThrows) {
  // /dev/full returns ENOSPC on write — the canonical disk-full simulation.
  // Skip quietly on systems without it.
  std::ofstream probe("/dev/full");
  if (!probe.good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  BinaryWriter w("/dev/full");
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) {
          w.WriteU64(static_cast<uint64_t>(i));
        }
        w.Flush();
      },
      SerializationError);
}

TEST(FailpointTest, ThrowActionTriggersOnNthHitThenDisarms) {
  failpoint::Configure("test.site=2:throw");
  EXPECT_TRUE(failpoint::IsArmed("test.site"));
  ASTRAEA_FAILPOINT("test.site");  // hit 1 of 2: passes
  EXPECT_THROW(ASTRAEA_FAILPOINT("test.site"), failpoint::Injected);
  // Exhausted: further hits pass.
  ASTRAEA_FAILPOINT("test.site");
  EXPECT_FALSE(failpoint::IsArmed("test.site"));
  failpoint::Clear();
}

TEST(FailpointTest, UnrelatedSitesDoNotTrigger) {
  failpoint::Configure("test.other=1:throw");
  ASTRAEA_FAILPOINT("test.site");  // different site: no-op
  EXPECT_TRUE(failpoint::IsArmed("test.other"));
  failpoint::Clear();
  ASTRAEA_FAILPOINT("test.other");  // cleared: no-op
}

TEST(FailpointTest, MalformedSpecThrows) {
  EXPECT_THROW(failpoint::Configure("nocount"), std::invalid_argument);
  EXPECT_THROW(failpoint::Configure("site=banana"), std::invalid_argument);
  EXPECT_THROW(failpoint::Configure("site=0"), std::invalid_argument);
  EXPECT_THROW(failpoint::Configure("site=1:detonate"), std::invalid_argument);
  failpoint::Clear();
}

}  // namespace
}  // namespace astraea
