#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/pool.hpp"

namespace vmic::sim {

/// Single-threaded discrete-event simulation environment.
///
/// Coroutines suspend on awaitables (Delay, Event, Mutex, resources); the
/// environment resumes them in (time, insertion-sequence) order, which
/// makes every run deterministic for a fixed seed and spawn order.
///
/// The event queue is a calendar queue (Brown 1988): an open-hashed ring
/// of time-sorted buckets whose width/size adapt to the live event
/// population, giving O(1) amortized insert/pop. Timer entries live in a
/// slab pool (util::SlotPool) and TimerIds embed (slot, generation), so
/// cancel() unlinks the entry in place in O(1) and `pending_events()` is
/// exact — there is no tombstone set. `queue_work()` counts the queue's
/// non-constant steps, so tests can bound the work per event exactly.
class SimEnv {
 public:
  using TimerId = std::uint64_t;

  SimEnv();
  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `h` to resume at absolute time `t` (>= now; an earlier `t`
  /// is clamped to now). Returns an id that can be passed to cancel().
  TimerId schedule_at(SimTime t, std::coroutine_handle<> h);

  /// Schedule a plain callback (used by resources that need to recompute
  /// state at a future instant without a dedicated coroutine).
  TimerId call_at(SimTime t, std::function<void()> fn);

  /// Cancel a pending timer: O(1), the entry is unlinked from its bucket
  /// and its slot recycled immediately. Cancelling an already-fired,
  /// already-cancelled, or unknown id is a no-op (the slot's generation
  /// no longer matches).
  void cancel(TimerId id);

  /// Run until the event queue is empty.
  void run();

  /// Run until the queue is empty or `deadline` is reached (events at
  /// exactly `deadline` are processed). Returns true if the queue drained.
  bool run_until(SimTime deadline);

  /// Process a single event; returns false if the queue is empty.
  bool step();

  /// Live (schedulable) events, exact even after cancellations.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return live_count_;
  }

  /// Events fired since construction (throughput accounting).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// Queue work since construction: entries walked past by sorted
  /// inserts, buckets stepped over (or swept in a sparse-year lap) while
  /// looking for the next event, and entries relinked by resizes. Each
  /// of these is O(1) per event on average when the bucket width fits
  /// the event spacing, so queue_work() / events_processed() stays small
  /// and flat as the pending population grows.
  [[nodiscard]] std::uint64_t queue_work() const noexcept {
    return queue_work_;
  }

  /// Number of spawned, still-running detached tasks.
  [[nodiscard]] std::size_t live_tasks() const noexcept { return live_tasks_; }

  // --- awaitables ----------------------------------------------------------

  struct DelayAwaiter {
    SimEnv& env;
    SimTime delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      env.schedule_at(env.now_ + (delay < 0 ? 0 : delay), h);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await env.delay(t)` — resume after `t` simulated nanoseconds.
  /// A zero delay still round-trips through the queue (a deterministic
  /// yield point).
  [[nodiscard]] DelayAwaiter delay(SimTime t) noexcept { return {*this, t}; }

  /// `co_await env.yield()` — let other ready coroutines run first.
  [[nodiscard]] DelayAwaiter yield() noexcept { return {*this, 0}; }

  // --- detached tasks --------------------------------------------------------

  /// Launch a detached task. It starts running at the next event-loop
  /// iteration (scheduled at the current time). The task's result is
  /// discarded; exceptions terminate (simulation code reports failures
  /// through Result<>, not exceptions).
  void spawn(Task<void> task);

 private:
  static constexpr std::uint32_t kNil = util::SlotPool<int>::kNil;
  /// TimerId layout: low kSlotBits = pool slot, high bits =
  /// slot generation at allocation. 2^28 concurrent timers, 2^36
  /// generations per slot before an id could alias.
  static constexpr std::uint32_t kSlotBits = 28;
  static constexpr TimerId kSlotMask = (TimerId{1} << kSlotBits) - 1;

  /// Pooled timer entry, intrusively linked into its calendar bucket
  /// (doubly, so cancel() unlinks in O(1)). Buckets are kept sorted by
  /// (time, seq); seq is globally monotone, so same-time entries fire in
  /// schedule order.
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;  ///< bumped on release; ids embed it
    std::coroutine_handle<> handle;   // either handle...
    std::function<void()> fn;         // ...or callback
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bucket = 0;
    bool live = false;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Wrapper coroutine that owns a spawned task for its whole lifetime.
  // Lazily started (spawn schedules it), self-destroying on completion.
  // Frames come from the coroutine frame pool.
  struct SpawnedTask {
    struct promise_type {
      static void* operator new(std::size_t n) {
        return util::FramePool::allocate(n);
      }
      static void operator delete(void* p, std::size_t n) noexcept {
        util::FramePool::deallocate(p, n);
      }
      SpawnedTask get_return_object() noexcept {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
    std::coroutine_handle<promise_type> handle;
  };
  static SpawnedTask run_spawned(SimEnv* env, Task<void> task);

  // --- calendar queue internals ---------------------------------------------

  [[nodiscard]] std::uint32_t bucket_of(SimTime t) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(width_)) &
        mask_);
  }
  TimerId insert_entry(SimTime t, std::coroutine_handle<> h,
                       std::function<void()> fn);
  void link_sorted(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  void release(std::uint32_t idx);
  /// Advance the year scan to the next dequeueable entry; kNil if empty.
  std::uint32_t find_min();
  void rebuild(std::uint32_t new_buckets);
  void maybe_resize();
  /// Fire one entry: set the clock, recycle the slot, then resume/invoke.
  void fire(std::uint32_t idx);

  util::SlotPool<Entry> pool_;
  std::vector<Bucket> buckets_;
  SimTime width_ = 1024;        ///< bucket time width (ns)
  std::uint64_t mask_ = 0;      ///< nbuckets - 1 (nbuckets power of two)
  std::uint32_t nbuckets_ = 0;
  std::uint32_t cur_ = 0;       ///< year-scan position (bucket index)
  SimTime cur_top_ = 0;         ///< upper time bound of bucket cur_'s window
  std::size_t live_count_ = 0;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t queue_work_ = 0;
  std::size_t live_tasks_ = 0;
};

}  // namespace vmic::sim
