#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/sim/invariants.h"

namespace astraea {

EventQueue::EventQueue() {
  bucket_head_.assign(num_buckets_, kNil);
  bucket_tail_.assign(num_buckets_, kNil);
  occupied_.assign(num_buckets_ / 64, 0);
}

uint32_t EventQueue::AcquireSlot(TimeNs when, uint64_t seq) {
  // Causality: nothing may be scheduled in the past. With the invariant
  // checker on this is a reportable (and in fatal mode, throwable) violation;
  // the ASTRAEA_CHECK below stays as the unconditional backstop.
  if (when < now_ && invariants::Enabled()) {
    invariants::Report("event.schedule_in_past",
                       "event scheduled at " + std::to_string(when) + " ns with clock at " +
                           std::to_string(now_) + " ns");
  }
  ASTRAEA_CHECK(when >= now_);

  // Grow the calendar when the population outruns the bucket array, and
  // garbage-collect when lazily-cancelled slots dominate the live ones.
  const size_t population = live_ + cancelled_pending_;
  if ((population + 1 > 2 * num_buckets_ && num_buckets_ < kMaxBuckets) ||
      (cancelled_pending_ > 64 && cancelled_pending_ > 2 * live_)) {
    Rebuild();
  }

  uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slot(idx).next;
    ++recycled_;
  } else {
    if ((size_t{allocated_} >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    idx = allocated_++;
  }
  Slot& s = slot(idx);
  s.when = when;
  s.seq = seq;
  return idx;
}

uint64_t EventQueue::Enqueue(uint32_t idx) {
  ++live_;
  InsertActive(idx);
  return (static_cast<uint64_t>(slot(idx).gen) << 32) | idx;
}

void EventQueue::FreeSlot(uint32_t idx) {
  Slot& s = slot(idx);
  s.cancelled = false;
  s.fn.Reset();  // release captured state promptly
  s.next = free_head_;
  free_head_ = idx;
}

void EventQueue::InsertActive(uint32_t idx) {
  int64_t day = DayOf(slot(idx).when);
  if (day < base_day_) {
    // Only possible after a rotation jumped the window ahead of the clock and
    // a nearer-term event arrived behind it: re-anchor the window at now.
    Rebuild();
    day = DayOf(slot(idx).when);  // width may have changed
  }
  if (day - base_day_ >= static_cast<int64_t>(num_buckets_)) {
    PushOverflow(idx, day);
  } else {
    InsertBucket(idx, day);
  }
}

void EventQueue::InsertBucket(uint32_t idx, int64_t day) {
  const size_t mask = num_buckets_ - 1;
  const size_t b = static_cast<size_t>(day) & mask;
  Slot& s = slot(idx);
  ++calendar_count_;
  if (bucket_head_[b] == kNil) {
    s.next = kNil;
    bucket_head_[b] = bucket_tail_[b] = idx;
    occupied_[b >> 6] |= (1ULL << (b & 63));
    return;
  }
  // Fast path: sequence numbers increase monotonically, so same-time events
  // and in-order schedules append at the tail in O(1).
  Slot& tail = slot(bucket_tail_[b]);
  if (tail.when < s.when || (tail.when == s.when && tail.seq < s.seq)) {
    s.next = kNil;
    tail.next = idx;
    bucket_tail_[b] = idx;
    return;
  }
  // Out-of-order (earlier `when`): sorted insert keeps the bucket in strict
  // (when, seq) order so dispatch remains the global FIFO-tie-broken order.
  uint32_t prev = kNil;
  uint32_t cur = bucket_head_[b];
  while (cur != kNil) {
    const Slot& c = slot(cur);
    if (c.when > s.when || (c.when == s.when && c.seq > s.seq)) {
      break;
    }
    prev = cur;
    cur = c.next;
  }
  s.next = cur;
  if (prev == kNil) {
    bucket_head_[b] = idx;
  } else {
    slot(prev).next = idx;
  }
  if (cur == kNil) {
    bucket_tail_[b] = idx;
  }
}

void EventQueue::PushOverflow(uint32_t idx, int64_t day) {
  slot(idx).next = overflow_head_;
  overflow_head_ = idx;
  if (overflow_count_ == 0 || day < overflow_min_day_) {
    overflow_min_day_ = day;
  }
  ++overflow_count_;
}

void EventQueue::PullOverflow() {
  const int64_t window_end = base_day_ + static_cast<int64_t>(num_buckets_);
  uint32_t cur = overflow_head_;
  overflow_head_ = kNil;
  overflow_count_ = 0;
  uint32_t keep_head = kNil;
  size_t keep_count = 0;
  int64_t keep_min = 0;
  while (cur != kNil) {
    const uint32_t next = slot(cur).next;
    const int64_t day = DayOf(slot(cur).when);
    if (day < window_end) {
      ASTRAEA_CHECK(day >= base_day_);
      InsertBucket(cur, day);
    } else {
      slot(cur).next = keep_head;
      keep_head = cur;
      if (keep_count == 0 || day < keep_min) {
        keep_min = day;
      }
      ++keep_count;
    }
    cur = next;
  }
  overflow_head_ = keep_head;
  overflow_count_ = keep_count;
  overflow_min_day_ = keep_min;
}

int64_t EventQueue::ScanForDay() const {
  const size_t mask = num_buckets_ - 1;
  const size_t start = static_cast<size_t>(base_day_) & mask;
  const size_t words = occupied_.size();
  const size_t w0 = start >> 6;
  const size_t b0 = start & 63;
  for (size_t i = 0; i <= words; ++i) {
    const size_t w = (w0 + i) % words;
    uint64_t word = occupied_[w];
    if (i == 0) {
      word &= ~0ULL << b0;
    } else if (i == words) {
      word &= b0 == 0 ? 0 : ((1ULL << b0) - 1);  // wrap: the bits before start
    }
    if (word != 0) {
      const size_t bucket = (w << 6) | static_cast<size_t>(__builtin_ctzll(word));
      const size_t dist = (bucket + num_buckets_ - start) & mask;
      return base_day_ + static_cast<int64_t>(dist);
    }
  }
  ASTRAEA_CHECK(false && "ScanForDay on an empty calendar");
  return 0;
}

uint32_t EventQueue::PopReady(TimeNs limit) {
  for (;;) {
    if (calendar_count_ == 0) {
      if (overflow_count_ == 0) {
        return kNil;
      }
      // Rotation: the window has fully drained; jump it to the overflow
      // ladder's earliest day and pull the now-in-window events in.
      base_day_ = overflow_min_day_;
      ++rotations_;
      PullOverflow();
      continue;
    }
    if (num_buckets_ > kMinBuckets && live_ + cancelled_pending_ < num_buckets_ / 8) {
      Rebuild();
      continue;
    }
    const int64_t day = ScanForDay();
    if (overflow_count_ > 0 && overflow_min_day_ <= day) {
      // An overflow event is due no later than the calendar candidate; pull
      // it in before deciding the minimum.
      PullOverflow();
      continue;
    }
    const size_t b = static_cast<size_t>(day) & (num_buckets_ - 1);
    const uint32_t idx = bucket_head_[b];
    Slot& s = slot(idx);
    if (s.when > limit) {
      return kNil;
    }
    bucket_head_[b] = s.next;
    if (s.next == kNil) {
      bucket_tail_[b] = kNil;
      occupied_[b >> 6] &= ~(1ULL << (b & 63));
    }
    --calendar_count_;
    base_day_ = day;  // all remaining events are on this day or later
    if (s.cancelled) {
      --cancelled_pending_;
      FreeSlot(idx);
      continue;
    }
    return idx;
  }
}

void EventQueue::Rebuild() {
  ++rebuilds_;
  std::vector<uint32_t> items;
  items.reserve(live_);
  const auto collect = [&](uint32_t head) {
    for (uint32_t cur = head; cur != kNil;) {
      const uint32_t next = slot(cur).next;
      if (slot(cur).cancelled) {
        --cancelled_pending_;
        FreeSlot(cur);
      } else {
        items.push_back(cur);
      }
      cur = next;
    }
  };
  for (size_t b = 0; b < num_buckets_; ++b) {
    collect(bucket_head_[b]);
  }
  collect(overflow_head_);

  // The window spans twice the time to the 90th-percentile pending event, so
  // a bucket is about as wide as the mean spacing of the nearest 90% of
  // events. The few far timers (each sender's RTO and MTP tick) then wait in
  // the overflow ladder instead of stretching every bucket across the RTO
  // horizon, where most events would share a bucket and out-of-order inserts
  // would walk it. Where far events are many (a timer-heavy population), the
  // 90th percentile lies among them and the window spans them all.
  std::vector<TimeNs> offsets;
  offsets.reserve(items.size());
  for (const uint32_t idx : items) {
    offsets.push_back(slot(idx).when - now_);
  }
  TimeNs span = 0;
  if (!offsets.empty()) {
    span = *std::max_element(offsets.begin(), offsets.end());
    const auto p90 = offsets.begin() + static_cast<std::ptrdiff_t>((offsets.size() - 1) * 9 / 10);
    std::nth_element(offsets.begin(), p90, offsets.end());
    if (*p90 > 0 && *p90 < span / 2) {
      span = 2 * *p90;
    }
  }

  size_t target = kMinBuckets;
  while (target < 2 * items.size() && target < kMaxBuckets) {
    target <<= 1;
  }
  num_buckets_ = target;
  width_ = span / static_cast<TimeNs>(num_buckets_) + 1;
  base_day_ = DayOf(now_);
  bucket_head_.assign(num_buckets_, kNil);
  bucket_tail_.assign(num_buckets_, kNil);
  occupied_.assign(num_buckets_ / 64, 0);
  calendar_count_ = 0;
  overflow_head_ = kNil;
  overflow_count_ = 0;
  overflow_min_day_ = 0;

  for (const uint32_t idx : items) {
    const int64_t day = DayOf(slot(idx).when);
    if (day - base_day_ >= static_cast<int64_t>(num_buckets_)) {
      PushOverflow(idx, day);
    } else {
      InsertBucket(idx, day);
    }
  }
}

void EventQueue::Cancel(uint64_t handle) {
  const uint32_t idx = static_cast<uint32_t>(handle & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(handle >> 32);
  if (idx >= allocated_) {
    return;
  }
  Slot& s = slot(idx);
  if (s.gen != gen) {
    return;  // stale handle: the event ran or is running, was cancelled, or
             // the slot was recycled for a newer event
  }
  ++s.gen;
  s.cancelled = true;
  --live_;
  ++cancelled_pending_;
}

void EventQueue::Dispatch(uint32_t idx) {
  Slot& s = slot(idx);
  // Monotone dispatch: the calendar can only hand out nondecreasing times. A
  // violation here means the queue ordering itself is corrupt.
  if (s.when < now_ && invariants::Enabled()) {
    invariants::Report("event.monotone_dispatch",
                       "dispatching event at " + std::to_string(s.when) +
                           " ns after clock reached " + std::to_string(now_) + " ns");
  }
  now_ = s.when;
  ++executed_;
  --live_;
  // The closure runs in its slot, which is freed only afterwards. Bumping the
  // generation first makes the event's own handle stale, so a callback that
  // cancels it is a no-op. The callback may schedule events meanwhile: they
  // take other slots (this one is on no list), and slabs never move when the
  // pool grows or the calendar rebuilds, so `s` stays valid.
  ++s.gen;
  s.fn();
  FreeSlot(idx);
}

void EventQueue::RunUntil(TimeNs until) {
  for (;;) {
    const uint32_t idx = PopReady(until);
    if (idx == kNil) {
      break;
    }
    Dispatch(idx);
  }
  now_ = std::max(now_, until);
}

void EventQueue::RunAll() {
  for (;;) {
    const uint32_t idx = PopReady(std::numeric_limits<TimeNs>::max());
    if (idx == kNil) {
      break;
    }
    Dispatch(idx);
  }
}

}  // namespace astraea
