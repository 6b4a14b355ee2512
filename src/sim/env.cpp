#include "sim/env.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace vmic::sim {

namespace {

constexpr std::uint32_t kMinBuckets = 64;
constexpr std::uint32_t kMaxBuckets = 1u << 20;
/// Bucket width is clamped so year arithmetic can never overflow SimTime
/// even at the largest wheel size.
constexpr SimTime kMaxWidth = SimTime{1} << 42;

}  // namespace

SimEnv::SimEnv()
    : buckets_(kMinBuckets),
      mask_(kMinBuckets - 1),
      nbuckets_(kMinBuckets),
      cur_top_(width_) {}

// --- calendar queue ---------------------------------------------------------

void SimEnv::link_sorted(std::uint32_t idx) {
  Entry& e = pool_[idx];
  const std::uint32_t b = bucket_of(e.time);
  e.bucket = b;
  Bucket& bk = buckets_[b];
  // Walk from the tail: the common cases (a later time, or an equal time
  // with a larger seq) insert at the tail immediately, preserving FIFO
  // order for same-time events because seq is globally monotone.
  std::uint32_t after = bk.tail;
  std::uint64_t walked = 0;
  while (after != kNil) {
    const Entry& a = pool_[after];
    if (a.time < e.time || (a.time == e.time && a.seq < e.seq)) break;
    after = a.prev;
    ++walked;
  }
  queue_work_ += walked;
  if (after == kNil) {
    e.prev = kNil;
    e.next = bk.head;
    if (bk.head != kNil) pool_[bk.head].prev = idx;
    bk.head = idx;
    if (bk.tail == kNil) bk.tail = idx;
  } else {
    Entry& a = pool_[after];
    e.prev = after;
    e.next = a.next;
    if (a.next != kNil) pool_[a.next].prev = idx;
    a.next = idx;
    if (bk.tail == after) bk.tail = idx;
  }
}

void SimEnv::unlink(std::uint32_t idx) {
  Entry& e = pool_[idx];
  Bucket& bk = buckets_[e.bucket];
  if (e.prev != kNil) {
    pool_[e.prev].next = e.next;
  } else {
    bk.head = e.next;
  }
  if (e.next != kNil) {
    pool_[e.next].prev = e.prev;
  } else {
    bk.tail = e.prev;
  }
  e.prev = e.next = kNil;
  --live_count_;
}

void SimEnv::release(std::uint32_t idx) {
  Entry& e = pool_[idx];
  ++e.gen;  // stale TimerIds for this slot stop matching
  e.live = false;
  e.handle = {};
  e.fn = nullptr;  // drop captured state now, not at slot reuse
  pool_.free(idx);
}

SimEnv::TimerId SimEnv::insert_entry(SimTime t, std::coroutine_handle<> h,
                                     std::function<void()> fn) {
  const std::uint32_t idx = pool_.alloc();
  Entry& e = pool_[idx];
  e.time = t;
  e.seq = next_seq_++;
  e.handle = h;
  e.fn = std::move(fn);
  e.live = true;
  const TimerId id = ((e.gen << kSlotBits) | idx);
  // An event earlier than the current scan window would be missed for a
  // whole lap: rewind the year scan to its bucket. Also (re)anchor the
  // scan when the wheel was empty.
  if (live_count_ == 0 || t < cur_top_ - width_) {
    cur_ = bucket_of(t);
    cur_top_ =
        (static_cast<SimTime>(static_cast<std::uint64_t>(t) /
                              static_cast<std::uint64_t>(width_)) +
         1) *
        width_;
  }
  link_sorted(idx);
  ++live_count_;
  maybe_resize();
  return id;
}

std::uint32_t SimEnv::find_min() {
  if (live_count_ == 0) return kNil;
  std::uint32_t scanned = 0;
  for (;;) {
    const std::uint32_t h = buckets_[cur_].head;
    if (h != kNil && pool_[h].time < cur_top_) {
      queue_work_ += scanned;
      return h;
    }
    cur_ = static_cast<std::uint32_t>((cur_ + 1) & mask_);
    cur_top_ += width_;
    if (++scanned > nbuckets_) {
      // Sparse year: no event within a full lap of the wheel. Find the
      // global minimum directly and jump the scan to its year.
      std::uint32_t best = kNil;
      for (std::uint32_t b = 0; b < nbuckets_; ++b) {
        const std::uint32_t bh = buckets_[b].head;
        if (bh == kNil) continue;
        if (best == kNil) {
          best = bh;
          continue;
        }
        const Entry& cand = pool_[bh];
        const Entry& cur_best = pool_[best];
        if (cand.time < cur_best.time ||
            (cand.time == cur_best.time && cand.seq < cur_best.seq)) {
          best = bh;
        }
      }
      assert(best != kNil);
      queue_work_ += scanned + nbuckets_;
      const Entry& e = pool_[best];
      cur_ = e.bucket;
      cur_top_ =
          (static_cast<SimTime>(static_cast<std::uint64_t>(e.time) /
                                static_cast<std::uint64_t>(width_)) +
           1) *
          width_;
      return best;
    }
  }
}

void SimEnv::rebuild(std::uint32_t new_buckets) {
  // Collect every live entry, walking the ring from the scan cursor.
  // When the live span fits inside one calendar year (the common case)
  // this visits entries already in (time, seq) order, and the sort
  // below collapses to an O(n) is_sorted check.
  std::vector<std::uint32_t> all;
  all.reserve(live_count_);
  for (std::uint32_t b = 0; b < nbuckets_; ++b) {
    const Bucket& bk = buckets_[(cur_ + b) & mask_];
    for (std::uint32_t i = bk.head; i != kNil; i = pool_[i].next) {
      all.push_back(i);
    }
  }
  // New width: four times the mean inter-event gap over the earliest
  // ~64 events (Brown's sampling, integer arithmetic — deterministic
  // and platform-independent because only the time *values* matter).
  const std::size_t k = std::min<std::size_t>(all.size(), 64);
  if (k >= 2) {
    std::vector<SimTime> times;
    times.reserve(all.size());
    for (std::uint32_t i : all) times.push_back(pool_[i].time);
    std::nth_element(times.begin(), times.begin() + (k - 1), times.end());
    std::sort(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k));
    // Mean gap per *event*, duplicates included: when many events share
    // a timestamp the right width is at most one tick, so same-time
    // arrivals land in their own bucket and insert as O(1) tail appends
    // (seq is monotone). Averaging only distinct times here once picked
    // a width 4 ticks wide and turned every insert into a sorted-list
    // walk across ~4 ticks of events.
    const SimTime span = times[k - 1] - times[0];
    width_ = std::clamp<SimTime>(
        4 * (span / static_cast<SimTime>(k - 1)), 1, kMaxWidth);
  }
  nbuckets_ = new_buckets;
  mask_ = nbuckets_ - 1;
  buckets_.assign(nbuckets_, Bucket{});
  // Relink in (time, seq) order: every insert is then a tail append, so
  // the rebuild is one sort (skipped when the ring walk above already
  // produced sorted order) plus O(n) links.
  const auto by_time_seq = [this](std::uint32_t a, std::uint32_t b) {
    const Entry& ea = pool_[a];
    const Entry& eb = pool_[b];
    if (ea.time != eb.time) return ea.time < eb.time;
    return ea.seq < eb.seq;
  };
  if (!std::is_sorted(all.begin(), all.end(), by_time_seq)) {
    std::sort(all.begin(), all.end(), by_time_seq);
  }
  for (std::uint32_t i : all) link_sorted(i);
  queue_work_ += all.size();
  if (!all.empty()) {
    const Entry& e = pool_[all.front()];
    cur_ = e.bucket;
    cur_top_ =
        (static_cast<SimTime>(static_cast<std::uint64_t>(e.time) /
                              static_cast<std::uint64_t>(width_)) +
         1) *
        width_;
  } else {
    cur_ = 0;
    cur_top_ = width_;
  }
}

void SimEnv::maybe_resize() {
  // Jump straight to the target size rather than doubling/halving one
  // step at a time: a bulk load of n events then costs one O(n) rebuild
  // instead of a log(n) cascade of them.
  if (live_count_ > 2 * static_cast<std::size_t>(nbuckets_) &&
      nbuckets_ < kMaxBuckets) {
    std::uint64_t target = std::bit_ceil(live_count_);
    rebuild(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(target, kMaxBuckets)));
  } else if (nbuckets_ > kMinBuckets &&
             live_count_ * 8 < static_cast<std::size_t>(nbuckets_)) {
    std::uint64_t target = std::bit_ceil(std::max<std::size_t>(
        live_count_ * 2, static_cast<std::size_t>(kMinBuckets)));
    rebuild(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(target, kMaxBuckets)));
  }
}

void SimEnv::fire(std::uint32_t idx) {
  Entry& e = pool_[idx];
  assert(e.time >= now_);
  now_ = e.time;
  const std::coroutine_handle<> h = e.handle;
  std::function<void()> fn = std::move(e.fn);
  unlink(idx);
  release(idx);
  ++events_processed_;
  maybe_resize();
  // Resume last: the slot is already recycled, so whatever the handler
  // schedules can reuse it immediately.
  if (h) {
    h.resume();
  } else {
    fn();
  }
}

// --- public API -------------------------------------------------------------

SimEnv::TimerId SimEnv::schedule_at(SimTime t, std::coroutine_handle<> h) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
  return insert_entry(t, h, nullptr);
}

SimEnv::TimerId SimEnv::call_at(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
  return insert_entry(t, nullptr, std::move(fn));
}

void SimEnv::cancel(TimerId id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(id & kSlotMask);
  if (idx >= pool_.capacity()) return;
  Entry& e = pool_[idx];
  if (!e.live || (e.gen << kSlotBits | idx) != id) return;
  unlink(idx);
  release(idx);
  maybe_resize();
}

bool SimEnv::step() {
  const std::uint32_t idx = find_min();
  if (idx == kNil) return false;
  fire(idx);
  return true;
}

void SimEnv::run() {
  while (step()) {
  }
}

bool SimEnv::run_until(SimTime deadline) {
  std::uint32_t idx;
  while ((idx = find_min()) != kNil) {
    if (pool_[idx].time > deadline) {
      now_ = deadline;
      return false;
    }
    fire(idx);
  }
  return true;
}

SimEnv::SpawnedTask SimEnv::run_spawned(SimEnv* env, Task<void> task) {
  co_await std::move(task);
  --env->live_tasks_;
}

void SimEnv::spawn(Task<void> task) {
  ++live_tasks_;
  SpawnedTask wrapper = run_spawned(this, std::move(task));
  schedule_at(now_, wrapper.handle);
}

}  // namespace vmic::sim
