#include "src/ipc/shm_ring.h"

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <new>
#include <thread>
#include <utility>

namespace astraea {
namespace ipc {

namespace {

constexpr uint64_t kRingMask = kRingSlots - 1;
static_assert((kRingSlots & (kRingSlots - 1)) == 0, "ring size must be a power of two");

long FutexSyscall(std::atomic<uint32_t>* word, int op, uint32_t val,
                  const struct timespec* timeout) {
  // Non-PRIVATE futex ops so the same word works across processes when the
  // backing page is MAP_SHARED.
  return syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), op, val, timeout, nullptr, 0);
}

int SpinIterations() { return SpinningPays() ? 4000 : 0; }

}  // namespace

bool SpinningPays() {
  static const bool pays = std::thread::hardware_concurrency() > 1;
  return pays;
}

TimeNs MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpscRing::Init() {
  head.store(0, std::memory_order_relaxed);
  tail.store(0, std::memory_order_relaxed);
  doorbell.store(0, std::memory_order_relaxed);
  consumer_parked.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < kRingSlots; ++i) {
    slots[i].seq.store(i, std::memory_order_relaxed);
    std::memset(slots[i].payload, 0, kSlotPayloadBytes);
  }
}

bool SpscRing::TryPush(const void* bytes, size_t n) {
  if (n > kSlotPayloadBytes) {
    return false;
  }
  const uint64_t pos = head.load(std::memory_order_relaxed);
  RingSlot& slot = slots[pos & kRingMask];
  // The slot is free for writing exactly when its seq equals our position;
  // anything else means full — or a corrupted region, which must look the
  // same (backpressure), never be written through.
  if (slot.seq.load(std::memory_order_acquire) != pos) {
    return false;
  }
  std::memcpy(slot.payload, bytes, n);
  slot.seq.store(pos + 1, std::memory_order_release);
  head.store(pos + 1, std::memory_order_relaxed);
  doorbell.fetch_add(1, std::memory_order_release);
  return true;
}

bool SpscRing::TryPop(void* bytes, size_t n) {
  if (n > kSlotPayloadBytes) {
    return false;
  }
  const uint64_t pos = tail.load(std::memory_order_relaxed);
  RingSlot& slot = slots[pos & kRingMask];
  if (slot.seq.load(std::memory_order_acquire) != pos + 1) {
    return false;  // empty (or unreadable after corruption)
  }
  std::memcpy(bytes, slot.payload, n);
  slot.seq.store(pos + kRingSlots, std::memory_order_release);
  tail.store(pos + 1, std::memory_order_relaxed);
  return true;
}

size_t SpscRing::SizeApprox() const {
  const uint64_t h = head.load(std::memory_order_relaxed);
  const uint64_t t = tail.load(std::memory_order_relaxed);
  // Clamp: racy reads (or corruption) can momentarily invert the cursors.
  return h >= t ? std::min<uint64_t>(h - t, kRingSlots) : 0;
}

void FutexWake(std::atomic<uint32_t>* word, int count) {
  if (count > 0) {
    FutexSyscall(word, FUTEX_WAKE, static_cast<uint32_t>(count), nullptr);
  }
}

void WakeConsumer(SpscRing* ring) {
  // Full fence so the doorbell bump in TryPush is globally visible before the
  // parked-flag read (Dekker pattern with the consumer's park sequence). A
  // missed wake is still only a latency bug, never a correctness one: every
  // futex sleep is chunked and deadline-bounded.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (ring->consumer_parked.load(std::memory_order_relaxed) != 0) {
    FutexWake(&ring->doorbell, 1);
  }
}

uint32_t WaitDoorbell(SpscRing* ring, uint32_t seen, TimeNs max_wait) {
  // Phase 1: spin. Covers the common case where the peer responds within a
  // few microseconds, without any syscall. Skipped on single-CPU hosts.
  const int spin_iters = SpinIterations();
  for (int i = 0; i < spin_iters; ++i) {
    const uint32_t now_val = ring->doorbell.load(std::memory_order_acquire);
    if (now_val != seen) {
      return now_val;
    }
    CpuRelax();
  }
  // Phase 2: park on the futex, re-checking around the parked-flag store so
  // a publish racing with the park cannot be lost.
  const TimeNs deadline = MonotonicNowNs() + std::max<TimeNs>(max_wait, 0);
  while (true) {
    ring->consumer_parked.store(1, std::memory_order_seq_cst);
    uint32_t now_val = ring->doorbell.load(std::memory_order_seq_cst);
    if (now_val != seen) {
      ring->consumer_parked.store(0, std::memory_order_release);
      return now_val;
    }
    const TimeNs remaining = deadline - MonotonicNowNs();
    if (remaining <= 0) {
      ring->consumer_parked.store(0, std::memory_order_release);
      return now_val;
    }
    // Cap each sleep so a lost wake (crashed peer) still re-checks promptly.
    const TimeNs chunk = std::min<TimeNs>(remaining, Milliseconds(2));
    struct timespec ts;
    ts.tv_sec = chunk / kNanosPerSec;
    ts.tv_nsec = chunk % kNanosPerSec;
    FutexSyscall(&ring->doorbell, FUTEX_WAIT, seen, &ts);
    ring->consumer_parked.store(0, std::memory_order_release);
    now_val = ring->doorbell.load(std::memory_order_acquire);
    if (now_val != seen || MonotonicNowNs() >= deadline) {
      return now_val;
    }
  }
}

MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  if (this != &other) {
    this->~MappedRegion();
    region_ = std::exchange(other.region_, nullptr);
    fd_ = std::exchange(other.fd_, -1);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

MappedRegion::~MappedRegion() {
  if (region_ != nullptr) {
    munmap(region_, bytes_);
    region_ = nullptr;
  }
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

int MappedRegion::release_fd() { return std::exchange(fd_, -1); }

MappedRegion CreateRegion() {
  const size_t bytes = sizeof(ShmRegion);
  const int fd = static_cast<int>(syscall(SYS_memfd_create, "astraea-serve-ring",
                                          /*MFD_CLOEXEC*/ 0x0001u));
  if (fd < 0) {
    return {};
  }
  if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    close(fd);
    return {};
  }
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mem == MAP_FAILED) {
    close(fd);
    return {};
  }
  auto* region = new (mem) ShmRegion();
  region->magic = kRegionMagic;
  region->version = kRegionVersion;
  region->ring_slots = kRingSlots;
  region->slot_payload_bytes = kSlotPayloadBytes;
  region->request.Init();
  region->response.Init();
  return MappedRegion(region, fd, bytes);
}

MappedRegion MapRegion(int fd) {
  const size_t bytes = sizeof(ShmRegion);
  struct stat st;
  if (fstat(fd, &st) != 0 || static_cast<size_t>(st.st_size) != bytes) {
    return {};
  }
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mem == MAP_FAILED) {
    return {};
  }
  auto* region = static_cast<ShmRegion*>(mem);
  if (region->magic != kRegionMagic || region->version != kRegionVersion ||
      region->ring_slots != kRingSlots || region->slot_payload_bytes != kSlotPayloadBytes) {
    munmap(mem, bytes);
    return {};
  }
  return MappedRegion(region, fd, bytes);
}

}  // namespace ipc
}  // namespace astraea
