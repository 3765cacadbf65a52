// Discrete-event scheduler: a calendar queue over a slab-allocated event pool.
//
// Events are (time, sequence, closure) triples executed in nondecreasing time
// order; the monotonically increasing sequence number breaks ties FIFO, which
// makes whole-simulation behaviour deterministic for a given seed. That total
// order is the contract the golden traces pin down — any correct scheduler
// implementation must dispatch in exactly this order.
//
// Implementation (see DESIGN.md §11 for the full layout):
//  * Event slots live in chunked slabs recycled through a freelist, so a
//    schedule/dispatch pair costs index arithmetic — no allocation. Each
//    closure is built in its slot (InlineFunction), run there and destroyed
//    there: no malloc, and no copy or move after the call site builds it.
//  * Schedule() returns a generation-stamped handle; Cancel() is an O(1)
//    stamp check + flag write (the seed implementation kept a vector of
//    cancelled ids and scanned it linearly on every dispatch — O(n²) under
//    churny retransmit timers).
//  * Pending events sit in a calendar: num_buckets_ (power of two) buckets of
//    width_ nanoseconds each, covering the "window" of days
//    [base_day_, base_day_ + num_buckets_). Each in-window day maps to a
//    unique bucket; buckets are kept sorted by (when, seq) with an O(1)
//    append fast path for the common monotone/tied insertion pattern.
//    Events beyond the window wait in an unsorted overflow ladder and are
//    pulled in a rotation when the window reaches them. An occupancy bitmap
//    makes "find next nonempty bucket" a few word scans.
//  * The calendar rebuilds (bucket count from the live event count, width
//    from the time to the 90th-percentile pending event) when the event
//    population outgrows or undershoots the bucket array; amortized O(1) per
//    operation.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/inline_function.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace astraea {

class EventQueue {
 public:
  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules the void() callable `fn` at absolute time `when` (>= now),
  // constructing it in its event slot. Returns a handle that can be passed to
  // Cancel().
  template <typename F>
  uint64_t Schedule(TimeNs when, F&& fn) {
    return ScheduleReserved(when, ReserveSeq(), std::forward<F>(fn));
  }
  template <typename F>
  uint64_t ScheduleAfter(TimeNs delay, F&& fn) {
    return Schedule(now_ + delay, std::forward<F>(fn));
  }

  // Takes the tie-break sequence number a Schedule() call made now would
  // take, for an event whose time is only settled later. ScheduleReserved()
  // with that number places the event, among events at the same time, where
  // scheduling it at the reservation would have placed it. The sender's one
  // RTO event uses this to keep the dispatch order of an event per ACK.
  uint64_t ReserveSeq() { return next_seq_++; }
  template <typename F>
  uint64_t ScheduleReserved(TimeNs when, uint64_t seq, F&& fn) {
    const uint32_t idx = AcquireSlot(when, seq);
    slot(idx).fn.Emplace(std::forward<F>(fn));
    return Enqueue(idx);
  }

  // O(1) cancel of a pending event. A handle whose event already ran, is
  // running, or was already cancelled is stale — its slot generation no
  // longer matches — and the call is a no-op, so cancelling twice, late or
  // from the event's own callback is always safe.
  void Cancel(uint64_t handle);

  // Runs events until the queue is empty or the next event is after `until`.
  // The clock lands exactly on `until` when the queue drains early.
  void RunUntil(TimeNs until);

  // Runs until the queue is fully drained (the clock stays on the last event).
  void RunAll();

  TimeNs now() const { return now_; }
  size_t pending() const { return live_; }
  uint64_t executed() const { return executed_; }

  // Pool / calendar statistics for the sim.pool.* metrics gauges.
  size_t slot_capacity() const { return allocated_; }
  uint64_t slots_recycled() const { return recycled_; }
  uint64_t calendar_rotations() const { return rotations_; }
  uint64_t calendar_rebuilds() const { return rebuilds_; }
  size_t bucket_count() const { return num_buckets_; }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr size_t kChunkShift = 12;  // 4096 slots per slab
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kMinBuckets = 64;
  static constexpr size_t kMaxBuckets = size_t{1} << 20;

  struct Slot {
    TimeNs when = 0;
    uint64_t seq = 0;    // FIFO tie-break, globally increasing
    uint32_t next = kNil;  // intrusive link: bucket chain / overflow / freelist
    uint32_t gen = 0;    // stamps Cancel handles; bumped when the event is
                         // cancelled or starts running
    bool cancelled = false;
    InlineFunction<48> fn;
  };

  Slot& slot(uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)]; }
  const Slot& slot(uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  int64_t DayOf(TimeNs when) const { return static_cast<int64_t>(when / width_); }

  // Schedule's untyped halves. AcquireSlot checks causality, grows or
  // collects the calendar and takes a free slot stamped (when, seq); the
  // caller builds the closure in it, then Enqueue files it and returns its
  // handle.
  uint32_t AcquireSlot(TimeNs when, uint64_t seq);
  uint64_t Enqueue(uint32_t idx);
  // Destroys the slot's closure and returns the slot to the freelist.
  void FreeSlot(uint32_t idx);

  // Places an active slot into its bucket (sorted) or the overflow ladder.
  void InsertActive(uint32_t idx);
  void InsertBucket(uint32_t idx, int64_t day);
  void PushOverflow(uint32_t idx, int64_t day);

  // Moves every overflow event whose day now falls inside the window into its
  // bucket and recomputes the overflow minimum.
  void PullOverflow();

  // Pops the globally minimal (when, seq) event with when <= limit, skipping
  // and freeing cancelled slots. Returns kNil when none qualifies.
  uint32_t PopReady(TimeNs limit);

  // Rebuilds the calendar: re-derives bucket count and width from the live
  // population and its spacing, drops cancelled slots, reinserts the rest.
  void Rebuild();

  // Dispatch loop shared by RunUntil/RunAll.
  void Dispatch(uint32_t idx);

  // Finds the first occupied bucket at circular distance >= base_day_'s
  // bucket; requires calendar_count_ > 0. Returns the day it represents.
  int64_t ScanForDay() const;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_head_ = kNil;
  uint32_t allocated_ = 0;  // high-water slot count

  std::vector<uint32_t> bucket_head_;
  std::vector<uint32_t> bucket_tail_;
  std::vector<uint64_t> occupied_;  // bitmap over buckets
  size_t num_buckets_ = kMinBuckets;
  TimeNs width_ = 1;
  int64_t base_day_ = 0;  // window start; every bucketed event's day is in
                          // [base_day_, base_day_ + num_buckets_)
  size_t calendar_count_ = 0;  // slots in buckets (incl. cancelled)

  uint32_t overflow_head_ = kNil;
  size_t overflow_count_ = 0;
  int64_t overflow_min_day_ = 0;  // valid when overflow_count_ > 0

  size_t live_ = 0;  // scheduled, not cancelled, not yet executed
  size_t cancelled_pending_ = 0;

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t recycled_ = 0;
  uint64_t rotations_ = 0;
  uint64_t rebuilds_ = 0;
};

}  // namespace astraea

#endif  // SRC_SIM_EVENT_QUEUE_H_
