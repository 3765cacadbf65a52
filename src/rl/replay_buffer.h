// Uniform-sampling experience replay for the multi-agent trainer.
//
// One transition per (flow, MTP): the flow's local state s, the aggregated
// global state g (critic-only input, Table 2), the action a, the shared global
// reward r, and the successor states. All flow agents share this buffer —
// that is the "centralized training" half of the paper's CTDE design.

#ifndef SRC_RL_REPLAY_BUFFER_H_
#define SRC_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace astraea {

struct Transition {
  std::vector<float> global_state;
  std::vector<float> local_state;
  std::vector<float> action;
  float reward = 0.0f;
  std::vector<float> next_global_state;
  std::vector<float> next_local_state;
  bool terminal = false;
};

// Read/sampling side consumed by Td3Trainer::Update. Implemented by
// ReplayBuffer and by the vectorized trainer's ShardedReplayBuffer; both
// sample uniformly with replacement using the caller's Rng, so the learner's
// random stream is identical whichever backing store is in use.
class ReplaySource {
 public:
  virtual ~ReplaySource() = default;
  virtual size_t size() const = 0;
  virtual const Transition& at(size_t i) const = 0;
  // Uniformly samples `n` indices in [0, size()) with replacement.
  virtual std::vector<size_t> SampleIndices(size_t n, Rng* rng) const = 0;
};

// One fixed-capacity ring that overwrites its oldest entry once full: a
// ShardedReplayBuffer shard, or the whole buffer of a single-learner test or
// bench.
class ReplayBuffer : public ReplaySource {
 public:
  explicit ReplayBuffer(size_t capacity) : capacity_(capacity) {
    ASTRAEA_CHECK(capacity_ > 0);
  }

  void Add(Transition t) {
    if (entries_.size() < capacity_) {
      entries_.push_back(std::move(t));
    } else {
      entries_[write_pos_] = std::move(t);
    }
    write_pos_ = (write_pos_ + 1) % capacity_;
    ++total_added_;
  }

  size_t size() const override { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total_added() const { return total_added_; }
  bool empty() const { return entries_.empty(); }

  const Transition& at(size_t i) const override { return entries_[i]; }

  // Uniformly samples `n` indices (with replacement).
  std::vector<size_t> SampleIndices(size_t n, Rng* rng) const override {
    ASTRAEA_CHECK(!entries_.empty());
    std::vector<size_t> out(n);
    for (auto& idx : out) {
      idx = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(entries_.size()) - 1));
    }
    return out;
  }

  // Serializes the entire buffer — ring contents, write cursor and lifetime
  // counter — so a resumed training run samples exactly what an uninterrupted
  // one would.
  void Save(BinaryWriter* writer) const {
    writer->WriteU64(capacity_);
    writer->WriteU64(write_pos_);
    writer->WriteU64(total_added_);
    writer->WriteU64(entries_.size());
    for (const Transition& t : entries_) {
      writer->WriteFloatVec(t.global_state);
      writer->WriteFloatVec(t.local_state);
      writer->WriteFloatVec(t.action);
      writer->WriteF32(t.reward);
      writer->WriteFloatVec(t.next_global_state);
      writer->WriteFloatVec(t.next_local_state);
      writer->WriteU32(t.terminal ? 1 : 0);
    }
  }

  void Load(BinaryReader* reader) {
    const uint64_t capacity = reader->ReadU64();
    const uint64_t write_pos = reader->ReadU64();
    const uint64_t total_added = reader->ReadU64();
    const uint64_t count = reader->ReadU64();
    if (capacity == 0 || count > capacity || write_pos >= capacity) {
      throw SerializationError("inconsistent replay buffer geometry in checkpoint");
    }
    std::vector<Transition> entries;
    entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Transition t;
      t.global_state = reader->ReadFloatVec();
      t.local_state = reader->ReadFloatVec();
      t.action = reader->ReadFloatVec();
      t.reward = reader->ReadF32();
      t.next_global_state = reader->ReadFloatVec();
      t.next_local_state = reader->ReadFloatVec();
      t.terminal = reader->ReadU32() != 0;
      entries.push_back(std::move(t));
    }
    capacity_ = capacity;
    write_pos_ = write_pos;
    total_added_ = total_added;
    entries_ = std::move(entries);
  }

 private:
  size_t capacity_;
  size_t write_pos_ = 0;
  uint64_t total_added_ = 0;
  std::vector<Transition> entries_;
};

}  // namespace astraea

#endif  // SRC_RL_REPLAY_BUFFER_H_
