// Sharded replay buffer with a deterministic actor-queue interleave.
//
// N parallel actors each stage the transitions of one model-update segment
// into a private vector; at the barrier the trainer drains all staging
// queues through DrainInterleaved(), which deals transitions one at a time
// in round-robin actor order starting from a persistent cursor. The global
// arrival sequence — and therefore which shard each transition lands in,
// what gets evicted, and what a uniform sample returns — is a pure function
// of (per-actor episode streams, cursor), never of worker count or
// scheduling. That is the whole determinism argument: parallelism moves the
// *production* of transitions, the interleave fixes their *order*.
//
// The cursor, per-shard rings and the global sequence counter all serialize,
// so a training run killed between rounds resumes mid-interleave exactly
// where it stopped (DESIGN.md §14).

#ifndef SRC_TRAIN_SHARDED_REPLAY_H_
#define SRC_TRAIN_SHARDED_REPLAY_H_

#include <cstddef>
#include <vector>

#include "src/rl/replay_buffer.h"

namespace astraea {

class ShardedReplayBuffer : public ReplaySource {
 public:
  // `capacity` is the total across shards; each shard is an independent ring
  // of capacity/shards (rounded up). Shard count is a fixed configuration
  // choice — it must NOT track worker count, or resharding would change
  // eviction order between runs with different parallelism.
  ShardedReplayBuffer(size_t capacity, size_t shards);

  // Deals one transition per visit from the staging queues in round-robin
  // order starting at the persistent cursor; empty queues that still have
  // non-empty peers count as interleave stalls (exposed for metrics — a
  // persistently stalling actor means an unbalanced domain sample). Consumed
  // queues are cleared. Destination shard = global_sequence % shards.
  void DrainInterleaved(std::vector<std::vector<Transition>>* staged);

  // ReplaySource: global index i resolves shard-major (shard 0's entries
  // first). Sampling draws the same count of Rng values as a single
  // ReplayBuffer of the same size.
  size_t size() const override;
  const Transition& at(size_t i) const override;
  std::vector<size_t> SampleIndices(size_t n, Rng* rng) const override;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_size(size_t s) const { return shards_[s].size(); }
  size_t capacity() const;
  uint64_t total_added() const { return global_seq_; }
  uint64_t interleave_cursor() const { return cursor_; }
  uint64_t interleave_stalls() const { return stalls_; }

  // Serializes shard rings (in shard-index order), the interleave cursor,
  // the stall counter and the global sequence. Load validates the shard
  // count against this instance and throws SerializationError on mismatch.
  void Save(BinaryWriter* writer) const;
  void Load(BinaryReader* reader);

 private:
  std::vector<ReplayBuffer> shards_;
  uint64_t global_seq_ = 0;  // lifetime transitions; also the shard selector
  uint64_t cursor_ = 0;      // next actor queue the round-robin deal visits
  uint64_t stalls_ = 0;
};

}  // namespace astraea

#endif  // SRC_TRAIN_SHARDED_REPLAY_H_
