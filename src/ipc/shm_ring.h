// Lock-free single-producer / single-consumer ring over a shared-memory
// region, the transport between a sender process and the inference server
// (paper §4: the deployed system serves many concurrent flows over
// shared-memory IPC rather than calling the model inline).
//
// Layout: a `ShmRegion` holds two `SpscRing`s — requests (client -> server)
// and responses (server -> client). Each ring is a fixed array of fixed-size
// slots with a per-slot sequence header (Vyukov-style):
//
//   producer at position p: slot[p & mask].seq must equal p; write payload,
//     then store seq = p + 1 (release) to publish.
//   consumer at position p: slot[p & mask].seq must equal p + 1; copy payload,
//     then store seq = p + kRingSlots (release) to recycle.
//
// Every cursor/seq read is bounds-masked and equality-checked, so *arbitrary*
// corruption of the shared region (a misbehaving or crashed peer, a flipped
// bit) can only make records look "not ready" or fail the protocol-level CRC
// — it can never index out of bounds, loop unboundedly, or fault. Callers
// enforce liveness with deadlines, never with unbounded waits.
//
// Wakeup is spin-then-sleep: the consumer spins briefly on the ring's
// doorbell (a counter the producer bumps on every publish), then parks on a
// futex over that word; the producer issues FUTEX_WAKE only when the
// consumer has advertised itself parked, so the uncontended fast path is
// purely user-space. The server side parks on one eventfd shared by all
// clients instead (see serve/), using the same parked-flag handshake.
//
// The region is created by the client as an anonymous memfd and passed to
// the server over the unix-socket control channel (SCM_RIGHTS), so no
// filesystem names need cleanup and the region dies with its processes.

#ifndef SRC_IPC_SHM_RING_H_
#define SRC_IPC_SHM_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/util/time.h"

namespace astraea {
namespace ipc {

inline constexpr uint32_t kRegionMagic = 0x41524E47;  // "ARNG"
inline constexpr uint32_t kRegionVersion = 1;
inline constexpr size_t kRingSlots = 64;  // per direction; power of two
inline constexpr size_t kSlotPayloadBytes = 272;

// Monotonic wall-clock nanoseconds (CLOCK_MONOTONIC); the time base for every
// IPC deadline. Distinct from simulation TimeNs, which is virtual.
TimeNs MonotonicNowNs();

struct alignas(64) RingSlot {
  std::atomic<uint64_t> seq;
  unsigned char payload[kSlotPayloadBytes];
};

// Lives inside shared memory: must stay trivially layout-compatible across
// processes (no virtuals, no pointers, fixed-width members only).
struct SpscRing {
  alignas(64) std::atomic<uint64_t> head;  // producer cursor
  alignas(64) std::atomic<uint64_t> tail;  // consumer cursor
  // Futex word, bumped once per publish; the consumer waits for it to move.
  alignas(64) std::atomic<uint32_t> doorbell;
  // Set (1) by the consumer before sleeping, cleared on wake; the producer
  // only pays a wake syscall when this is set.
  std::atomic<uint32_t> consumer_parked;
  RingSlot slots[kRingSlots];

  void Init();

  // Copies `n` bytes into the next free slot and publishes it (bumping the
  // doorbell). Returns false when the ring is full. `n` must be
  // <= kSlotPayloadBytes. Producer-thread only.
  bool TryPush(const void* bytes, size_t n);

  // Copies the oldest published slot out. Returns false when empty (or when
  // corruption makes the next slot unreadable — indistinguishable by design).
  // Consumer-thread only.
  bool TryPop(void* bytes, size_t n);

  // Occupancy estimate (racy; for metrics/backpressure heuristics only).
  size_t SizeApprox() const;
};

static_assert(std::atomic<uint64_t>::is_always_lock_free);
static_assert(std::atomic<uint32_t>::is_always_lock_free);

// False on a single-CPU host, where a spinning waiter only steals the core
// from the very peer it is waiting on: waiters (WaitDoorbell, the inference
// server's poll after a flush) then park at once instead of spinning.
bool SpinningPays();

// One spin-wait hint (x86 PAUSE; elsewhere only a compiler barrier).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// FUTEX_WAKE on `word` (non-private: works across processes on MAP_SHARED
// memory). No-op count<=0.
void FutexWake(std::atomic<uint32_t>* word, int count);

// Wakes the ring's consumer iff it advertised itself parked.
void WakeConsumer(SpscRing* ring);

// Consumer-side doorbell wait: spins briefly, then parks on the futex, until
// the doorbell moves past `seen` or `max_wait` elapses. Returns the latest
// doorbell value (callers re-check their rings regardless — wakeups may be
// spurious, and a corrupted doorbell must never be trusted for correctness).
uint32_t WaitDoorbell(SpscRing* ring, uint32_t seen, TimeNs max_wait);

struct ShmRegion {
  uint32_t magic;
  uint32_t version;
  uint32_t ring_slots;
  uint32_t slot_payload_bytes;
  SpscRing request;   // client -> server
  SpscRing response;  // server -> client
};

// Movable owner of a mapped ShmRegion (munmap + close on destruction).
class MappedRegion {
 public:
  MappedRegion() = default;
  MappedRegion(ShmRegion* region, int fd, size_t bytes)
      : region_(region), fd_(fd), bytes_(bytes) {}
  MappedRegion(MappedRegion&& other) noexcept { *this = std::move(other); }
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;
  ~MappedRegion();

  ShmRegion* get() const { return region_; }
  ShmRegion* operator->() const { return region_; }
  explicit operator bool() const { return region_ != nullptr; }
  int fd() const { return fd_; }
  // Releases ownership of the fd (e.g. after handing it to the peer).
  int release_fd();

 private:
  ShmRegion* region_ = nullptr;
  int fd_ = -1;
  size_t bytes_ = 0;
};

// Client side: allocates an anonymous memfd region and initializes both
// rings. Returns an empty MappedRegion on failure (errno preserved).
MappedRegion CreateRegion();

// Server side: maps a region fd received from a client, validating its size
// and header before trusting it. Returns empty on any mismatch. Does NOT take
// ownership of `fd` on failure; on success the fd is owned by the mapping.
MappedRegion MapRegion(int fd);

}  // namespace ipc
}  // namespace astraea

#endif  // SRC_IPC_SHM_RING_H_
