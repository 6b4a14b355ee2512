// Unit tests for the discrete-event engine: scheduling order, coroutine
// task composition, synchronisation primitives, determinism — plus the
// differential and property suites that pin the calendar-queue scheduler
// to the reference semantics (the contract every golden pin depends on).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/env.hpp"
#include "sim/run.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vmic::sim {
namespace {

TEST(SimEnv, StartsAtZero) {
  SimEnv env;
  EXPECT_EQ(env.now(), 0);
  EXPECT_EQ(env.pending_events(), 0u);
}

TEST(SimEnv, CallbacksRunInTimeOrder) {
  SimEnv env;
  std::vector<int> order;
  env.call_at(30, [&] { order.push_back(3); });
  env.call_at(10, [&] { order.push_back(1); });
  env.call_at(20, [&] { order.push_back(2); });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.now(), 30);
}

TEST(SimEnv, TiesBreakByInsertionOrder) {
  SimEnv env;
  std::vector<int> order;
  env.call_at(10, [&] { order.push_back(1); });
  env.call_at(10, [&] { order.push_back(2); });
  env.call_at(10, [&] { order.push_back(3); });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEnv, CancelledTimerDoesNotFire) {
  SimEnv env;
  bool fired = false;
  auto id = env.call_at(10, [&] { fired = true; });
  env.cancel(id);
  env.run();
  EXPECT_FALSE(fired);
}

TEST(SimEnv, RunUntilStopsAtDeadline) {
  SimEnv env;
  std::vector<int> order;
  env.call_at(10, [&] { order.push_back(1); });
  env.call_at(20, [&] { order.push_back(2); });
  env.call_at(30, [&] { order.push_back(3); });
  EXPECT_FALSE(env.run_until(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(env.now(), 20);
  EXPECT_TRUE(env.run_until(100));
  EXPECT_EQ(order.size(), 3u);
}

Task<int> return_42() { co_return 42; }

TEST(Task, RunSyncReturnsValue) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, return_42()), 42);
}

Task<int> add_after_delay(SimEnv& env, int a, int b) {
  co_await env.delay(100);
  co_return a + b;
}

TEST(Task, DelayAdvancesClock) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, add_after_delay(env, 2, 3)), 5);
  EXPECT_EQ(env.now(), 100);
}

Task<int> nested(SimEnv& env) {
  const int x = co_await add_after_delay(env, 1, 2);
  const int y = co_await add_after_delay(env, x, 10);
  co_return y;
}

TEST(Task, NestedAwaitsCompose) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, nested(env)), 13);
  EXPECT_EQ(env.now(), 200);
}

TEST(Task, SyncWaitOnImmediateTask) {
  // Host paths (no simulated time) can run without an environment.
  EXPECT_EQ(sync_wait(return_42()), 42);
}

Task<void> append_after(SimEnv& env, std::vector<int>& log, SimTime t, int v) {
  co_await env.delay(t);
  log.push_back(v);
}

TEST(SimEnv, SpawnedTasksInterleaveDeterministically) {
  SimEnv env;
  std::vector<int> log;
  env.spawn(append_after(env, log, 30, 1));
  env.spawn(append_after(env, log, 10, 2));
  env.spawn(append_after(env, log, 20, 3));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(env.live_tasks(), 0u);
}

TEST(SimEnv, LiveTaskAccounting) {
  SimEnv env;
  std::vector<int> log;
  env.spawn(append_after(env, log, 10, 1));
  env.spawn(append_after(env, log, 20, 2));
  EXPECT_EQ(env.live_tasks(), 2u);
  env.run();
  EXPECT_EQ(env.live_tasks(), 0u);
}

// --------------------------------------------------------------------------
// Event
// --------------------------------------------------------------------------

Task<void> wait_and_log(SimEnv& env, Event& ev, std::vector<int>& log, int id) {
  (void)env;
  co_await ev.wait();
  log.push_back(id);
}

Task<void> trigger_at(SimEnv& env, Event& ev, SimTime t) {
  co_await env.delay(t);
  ev.trigger();
}

TEST(Event, BroadcastWakesAllWaitersFifo) {
  SimEnv env;
  Event ev{env};
  std::vector<int> log;
  env.spawn(wait_and_log(env, ev, log, 1));
  env.spawn(wait_and_log(env, ev, log, 2));
  env.spawn(wait_and_log(env, ev, log, 3));
  env.spawn(trigger_at(env, ev, 50));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.now(), 50);
}

TEST(Event, WaitAfterTriggerCompletesImmediately) {
  SimEnv env;
  Event ev{env};
  ev.trigger();
  std::vector<int> log;
  env.spawn(wait_and_log(env, ev, log, 7));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{7}));
  EXPECT_EQ(env.now(), 0);
}

// --------------------------------------------------------------------------
// Mutex
// --------------------------------------------------------------------------

Task<void> critical(SimEnv& env, Mutex& m, std::vector<int>& log, int id,
                    SimTime hold) {
  auto guard = co_await m.lock();
  log.push_back(id);
  co_await env.delay(hold);
  log.push_back(-id);
}

TEST(Mutex, SerializesInFifoOrder) {
  SimEnv env;
  Mutex m{env};
  std::vector<int> log;
  env.spawn(critical(env, m, log, 1, 100));
  env.spawn(critical(env, m, log, 2, 100));
  env.spawn(critical(env, m, log, 3, 100));
  env.run();
  // No interleaving inside critical sections, FIFO hand-off.
  EXPECT_EQ(log, (std::vector<int>{1, -1, 2, -2, 3, -3}));
  EXPECT_EQ(env.now(), 300);
  EXPECT_FALSE(m.locked());
}

// --------------------------------------------------------------------------
// Semaphore
// --------------------------------------------------------------------------

Task<void> sem_user(SimEnv& env, Semaphore& s, int& active, int& peak,
                    SimTime hold) {
  co_await s.acquire();
  ++active;
  peak = std::max(peak, active);
  co_await env.delay(hold);
  --active;
  s.release();
}

TEST(Semaphore, LimitsConcurrency) {
  SimEnv env;
  Semaphore s{env, 2};
  int active = 0, peak = 0;
  for (int i = 0; i < 6; ++i) env.spawn(sem_user(env, s, active, peak, 100));
  env.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 holders, 2 at a time, 100 each => 300 total.
  EXPECT_EQ(env.now(), 300);
  EXPECT_EQ(s.available(), 2u);
}

// --------------------------------------------------------------------------
// RangeLock
// --------------------------------------------------------------------------

Task<void> range_user(SimEnv& env, RangeLock& rl, std::uint64_t lo,
                      std::uint64_t hi, SimTime hold, std::vector<SimTime>& done,
                      std::size_t id, std::vector<bool>& waited) {
  auto guard = co_await rl.acquire(lo, hi);
  waited[id] = guard.waited();
  co_await env.delay(hold);
  done[id] = env.now();
}

TEST(RangeLock, DisjointRangesProceedInParallel) {
  SimEnv env;
  RangeLock rl;
  std::vector<SimTime> done(4, 0);
  std::vector<bool> waited(4, true);
  for (std::size_t i = 0; i < 4; ++i)
    env.spawn(range_user(env, rl, i * 10, i * 10 + 10, 100, done, i, waited));
  env.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i], 100) << "user " << i;
    EXPECT_FALSE(waited[i]) << "user " << i;
  }
  EXPECT_EQ(rl.held_count(), 0u);
  EXPECT_EQ(rl.waiting_count(), 0u);
}

TEST(RangeLock, OverlappingAcquisitionsSerializeFifo) {
  SimEnv env;
  RangeLock rl;
  std::vector<SimTime> done(3, 0);
  std::vector<bool> waited(3, false);
  env.spawn(range_user(env, rl, 0, 10, 100, done, 0, waited));
  env.spawn(range_user(env, rl, 5, 15, 100, done, 1, waited));
  env.spawn(range_user(env, rl, 8, 9, 100, done, 2, waited));
  std::size_t held_mid = 0, waiting_mid = 0;
  env.call_at(10, [&] {
    held_mid = rl.held_count();
    waiting_mid = rl.waiting_count();
  });
  env.run();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_FALSE(waited[0]);
  EXPECT_TRUE(waited[1]);
  EXPECT_TRUE(waited[2]);
  EXPECT_EQ(held_mid, 1u);
  EXPECT_EQ(waiting_mid, 2u);
}

TEST(RangeLock, WaiterNeedsAllOverlapsClear) {
  SimEnv env;
  RangeLock rl;
  std::vector<SimTime> done(3, 0);
  std::vector<bool> waited(3, false);
  env.spawn(range_user(env, rl, 0, 10, 50, done, 0, waited));    // A
  env.spawn(range_user(env, rl, 10, 20, 150, done, 1, waited));  // B
  env.spawn(range_user(env, rl, 5, 15, 10, done, 2, waited));    // C
  env.run();
  // C overlaps both A (done at 50) and B (done at 150); it can only start
  // once the later of the two releases.
  EXPECT_EQ(done[0], 50);
  EXPECT_EQ(done[1], 150);
  EXPECT_EQ(done[2], 160);
  EXPECT_TRUE(waited[2]);
  EXPECT_EQ(rl.held_count(), 0u);
}

// --------------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------------

Task<void> busy_worker(SimEnv& env, Mutex& m, std::vector<SimTime>& stamps,
                       int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await m.lock();
    co_await env.delay(7);
    stamps.push_back(env.now());
  }
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    SimEnv env;
    Mutex m{env};
    std::vector<SimTime> stamps;
    for (int w = 0; w < 5; ++w) env.spawn(busy_worker(env, m, stamps, 10));
    env.run();
    return stamps;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 50u);
}

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_millis(2.0), 2'000'000);
  EXPECT_EQ(from_micros(3.0), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
}

// --------------------------------------------------------------------------
// Differential scheduler suite
//
// A minimal reference scheduler (plain vector, min by (time, seq), lazy
// dead flags — the semantics, with none of the production machinery) and
// the two SimEnv queue implementations are driven through identical
// seeded scripts of interleaved insert / cancel / reschedule / spawn
// operations, including adversarial same-timestamp bursts. All three
// must produce the identical fire order. This is the pin that lets the
// event queue be swapped fearlessly.
// --------------------------------------------------------------------------

/// Abstract driver surface: tags identify logical events across the
/// implementations under test.
class SchedUnderTest {
 public:
  virtual ~SchedUnderTest() = default;
  virtual SimTime now() const = 0;
  virtual void schedule(SimTime t, int tag) = 0;
  /// Spawn semantics: a detached task starts at now (one queue
  /// round-trip), then delays `d` and fires `tag`.
  virtual void spawn_delayed(SimTime d, int tag) = 0;
  virtual void cancel(int tag) = 0;
  virtual void run() = 0;
};

/// The reference: an unindexed event list with exact (time, seq) order.
class RefSched : public SchedUnderTest {
 public:
  explicit RefSched(std::function<void(RefSched&, int)> on_fire)
      : on_fire_(std::move(on_fire)) {}

  SimTime now() const override { return now_; }

  void schedule(SimTime t, int tag) override {
    evs_.push_back({t, seq_++, tag, /*spawn_delay=*/-1, true, false});
  }

  void spawn_delayed(SimTime d, int tag) override {
    // The spawn wrapper consumes one queue round-trip at `now` before
    // the delay starts — mirror it with a hidden event. Spawned tasks
    // have no timer id, so neither wrapper nor payload is cancellable.
    evs_.push_back({now_, seq_++, tag, d, false, false});
  }

  void cancel(int tag) override {
    for (auto& e : evs_) {
      if (e.tag == tag && e.cancellable) e.dead = true;
    }
  }

  void run() override {
    for (;;) {
      std::size_t best = evs_.size();
      for (std::size_t i = 0; i < evs_.size(); ++i) {
        if (evs_[i].dead) continue;
        if (best == evs_.size() || evs_[i].time < evs_[best].time ||
            (evs_[i].time == evs_[best].time &&
             evs_[i].seq < evs_[best].seq)) {
          best = i;
        }
      }
      if (best == evs_.size()) return;
      Ev e = evs_[best];
      evs_[best].dead = true;
      now_ = e.time;
      if (e.spawn_delay >= 0) {
        // Hidden spawn wrapper: the payload event starts its delay now.
        evs_.push_back({now_ + e.spawn_delay, seq_++, e.tag, -1, false,
                        false});
      } else {
        on_fire_(*this, e.tag);
      }
    }
  }

 private:
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    int tag;
    SimTime spawn_delay;  ///< >= 0: hidden spawn wrapper event
    bool cancellable;     ///< created via schedule() (has a timer id)
    bool dead;
  };
  std::vector<Ev> evs_;
  std::uint64_t seq_ = 0;
  SimTime now_ = 0;
  std::function<void(RefSched&, int)> on_fire_;
};

/// SimEnv's calendar queue, driven through the same interface.
class EnvSched : public SchedUnderTest {
 public:
  explicit EnvSched(std::function<void(EnvSched&, int)> on_fire)
      : on_fire_(std::move(on_fire)) {}

  SimTime now() const override { return env_.now(); }

  void schedule(SimTime t, int tag) override {
    ids_[tag] = env_.call_at(t, [this, tag] { on_fire_(*this, tag); });
  }

  void spawn_delayed(SimTime d, int tag) override {
    env_.spawn(delayed_fire(d, tag));
  }

  void cancel(int tag) override {
    if (auto it = ids_.find(tag); it != ids_.end()) env_.cancel(it->second);
  }

  void run() override { env_.run(); }

  SimEnv& env() { return env_; }

 private:
  Task<void> delayed_fire(SimTime d, int tag) {
    co_await env_.delay(d);
    on_fire_(*this, tag);
  }

  SimEnv env_;
  std::map<int, SimEnv::TimerId> ids_;
  std::function<void(EnvSched&, int)> on_fire_;
};

/// One differential run: the initial script and each event's follow-up
/// actions are derived deterministically from (seed, tag), so every
/// implementation executes the same logical workload. Returns the fire
/// order.
class DiffScript {
 public:
  explicit DiffScript(std::uint64_t seed) : seed_(seed) {}

  std::vector<int> drive(SchedUnderTest& s) {
    fired_.clear();
    next_tag_ = 0;
    std::mt19937_64 rng(seed_);
    // Initial burst: many events, coarse times (collisions guaranteed),
    // some scheduled then immediately cancelled or rescheduled.
    const int initial = 80;
    for (int i = 0; i < initial; ++i) {
      const int tag = next_tag_++;
      s.schedule(static_cast<SimTime>(rng() % 64), tag);
      const std::uint64_t roll = rng() % 10;
      if (roll == 0 && tag > 0) {
        s.cancel(static_cast<int>(rng() % static_cast<std::uint64_t>(tag)));
      } else if (roll == 1) {
        // Reschedule: cancel and re-add under a fresh tag.
        s.cancel(tag);
        s.schedule(static_cast<SimTime>(rng() % 64), next_tag_++);
      } else if (roll == 2) {
        s.spawn_delayed(static_cast<SimTime>(rng() % 32), next_tag_++);
      }
    }
    s.run();
    return fired_;
  }

  /// Follow-up behaviour on fire, identical across implementations.
  void on_fire(SchedUnderTest& s, int tag) {
    fired_.push_back(tag);
    std::mt19937_64 rng(seed_ ^ (0x9e3779b97f4a7c15ull *
                                 static_cast<std::uint64_t>(tag + 1)));
    const std::uint64_t n = rng() % 3;  // 0..2 follow-up actions
    for (std::uint64_t i = 0; i < n && next_tag_ < 4000; ++i) {
      switch (rng() % 4) {
        case 0:
          s.schedule(s.now() + static_cast<SimTime>(rng() % 50), next_tag_++);
          break;
        case 1:
          // Same-timestamp burst at the current instant.
          s.schedule(s.now(), next_tag_++);
          s.schedule(s.now(), next_tag_++);
          break;
        case 2:
          // Cancel an arbitrary earlier tag — often already fired or
          // cancelled; must be an exact no-op then.
          s.cancel(static_cast<int>(rng() %
                                    static_cast<std::uint64_t>(next_tag_)));
          break;
        case 3:
          s.spawn_delayed(static_cast<SimTime>(rng() % 20), next_tag_++);
          break;
      }
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<int> fired_;
  int next_tag_ = 0;
};

std::vector<int> run_reference(std::uint64_t seed) {
  DiffScript script(seed);
  RefSched ref([&script](RefSched& s, int tag) { script.on_fire(s, tag); });
  return script.drive(ref);
}

std::vector<int> run_env(std::uint64_t seed) {
  DiffScript script(seed);
  EnvSched env([&script](EnvSched& s, int tag) { script.on_fire(s, tag); });
  return script.drive(env);
}

TEST(SchedulerDifferential, CalendarMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto ref = run_reference(seed);
    ASSERT_GT(ref.size(), 50u) << "seed " << seed << ": degenerate script";
    EXPECT_EQ(run_env(seed), ref)
        << "calendar diverged from reference, seed " << seed;
  }
}

TEST(SchedulerDifferential, AdversarialSameTimestampBurst) {
  // Everything at one instant: pure seq-order sorting, across bucket
  // boundaries and through calendar resizes.
  SimEnv env;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    env.call_at(777, [&order, i] { order.push_back(i); });
  }
  env.run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --------------------------------------------------------------------------
// Property / fuzz: ordering invariants under randomized schedules
// --------------------------------------------------------------------------

TEST(SchedulerProperty, RandomizedInvariants) {
  // (a) an event never fires before its deadline (it fires exactly at
  //     it — simulated time is discrete and exact);
  // (b) same-time events fire in schedule (seq) order;
  // (c) cancelled timers never fire;
  // (d) pending_events() is exact after cancellation.
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    std::mt19937_64 rng(seed);
    SimEnv env;
    struct Rec {
      SimTime due;
      std::uint64_t order;  ///< global schedule order (seq proxy)
      SimEnv::TimerId id;
      bool cancelled = false;
      bool fired = false;
    };
    std::vector<Rec> recs;
    std::uint64_t fire_count = 0;
    SimTime last_time = 0;
    std::uint64_t last_order = 0;
    const int n = 400;
    recs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Clustered times to force ties; occasional far-future outliers to
      // force sparse year-scans and width adaptation.
      SimTime t = static_cast<SimTime>(rng() % 200);
      if (rng() % 17 == 0) t += static_cast<SimTime>(1) << 30;
      const std::size_t k = recs.size();
      recs.push_back({t, static_cast<std::uint64_t>(i), 0, false, false});
      recs[k].id = env.call_at(t, [&, k] {
        Rec& r = recs[k];
        EXPECT_FALSE(r.cancelled) << "cancelled timer fired";
        EXPECT_EQ(env.now(), r.due) << "fired off its deadline";
        if (env.now() == last_time) {
          EXPECT_GT(r.order, last_order) << "same-time events out of order";
        } else {
          EXPECT_GT(env.now(), last_time) << "time went backwards";
        }
        last_time = env.now();
        last_order = r.order;
        r.fired = true;
        ++fire_count;
      });
    }
    // Cancel a random subset before anything runs.
    std::size_t cancelled = 0;
    for (auto& r : recs) {
      if (rng() % 4 == 0) {
        env.cancel(r.id);
        r.cancelled = true;
        ++cancelled;
      }
    }
    EXPECT_EQ(env.pending_events(), recs.size() - cancelled);
    // Double-cancel is a no-op on the count.
    for (auto& r : recs) {
      if (r.cancelled) env.cancel(r.id);
    }
    EXPECT_EQ(env.pending_events(), recs.size() - cancelled);
    env.run();
    EXPECT_EQ(fire_count, recs.size() - cancelled);
    EXPECT_EQ(env.pending_events(), 0u);
    // Cancel-after-fire: exact no-op, including on the count.
    for (auto& r : recs) env.cancel(r.id);
    EXPECT_EQ(env.pending_events(), 0u);
    for (const auto& r : recs) EXPECT_NE(r.fired, r.cancelled);
  }
}

/// Queue work per event under bench_engine_throughput's micro churn:
/// `pending` timers at random times over a 2^16 ns horizon, each fire
/// rescheduling until `fires` timers have been scheduled, and every 4th
/// fire planting a far-future timer that is cancelled 64 plants later.
double churn_work_per_event(std::size_t pending, std::uint64_t fires) {
  constexpr std::uint64_t kHorizon = 1 << 16;
  constexpr std::size_t kDoomedRing = 64;
  std::uint64_t state = 0x5eed;
  const auto next = [&state] {  // splitmix64, as the bench draws
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  SimEnv env;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::vector<SimEnv::TimerId> doomed(kDoomedRing, 0);
  std::size_t doomed_at = 0;
  std::uint64_t plants = 0;
  std::function<void()> on_fire = [&] {
    ++fired;
    if (scheduled < fires) {
      ++scheduled;
      env.call_at(env.now() + 1 + static_cast<SimTime>(next() % kHorizon),
                  on_fire);
    }
    if ((fired & 3u) == 0) {
      if (plants++ >= kDoomedRing) env.cancel(doomed[doomed_at]);
      doomed[doomed_at] = env.call_at(
          env.now() + static_cast<SimTime>(2 * kHorizon + next() % kHorizon),
          [] {});
      doomed_at = (doomed_at + 1) % kDoomedRing;
    }
  };
  for (std::size_t i = 0; i < pending; ++i) {
    ++scheduled;
    env.call_at(1 + static_cast<SimTime>(next() % kHorizon), on_fire);
  }
  env.run();
  EXPECT_GE(env.events_processed(), fires);
  return static_cast<double>(env.queue_work()) /
         static_cast<double>(env.events_processed());
}

TEST(SchedulerProperty, QueueWorkPerEventIsBounded) {
  // The calendar queue's insert/pop/cancel are O(1) amortized only while
  // the bucket width tracks the event spacing. queue_work() counts every
  // step that is not O(1) (sorted-insert walks, empty buckets skipped,
  // resize relinks), so a fixed bound per event holds at any population.
  // These runs measure 2.2-4.1 per event; with the width forced 64x too
  // wide, 142-191.
  constexpr double kMaxWorkPerEvent = 8;
  for (const std::size_t pending : {std::size_t{1} << 10,
                                    std::size_t{1} << 12,
                                    std::size_t{1} << 16}) {
    EXPECT_LE(churn_work_per_event(pending, 4 * pending), kMaxWorkPerEvent)
        << pending << " pending";
  }
  // Few pending timers, many generations of fires: the width is
  // re-sampled on every resize as the population churns.
  EXPECT_LE(churn_work_per_event(4096, 64 * 4096), kMaxWorkPerEvent);
}

TEST(SchedulerProperty, TimerIdsDoNotAliasAcrossSlotReuse) {
  // Fire and recycle the same slot repeatedly; a stale id retained from
  // an earlier generation must never cancel the slot's new occupant.
  SimEnv env;
  SimEnv::TimerId first = env.call_at(1, [] {});
  env.run();
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    (void)env.call_at(env.now() + 1, [&fired] { ++fired; });
    env.cancel(first);  // stale generation: exact no-op every time
    env.run();
  }
  EXPECT_EQ(fired, 100);
}

TEST(SchedulerProperty, CalendarResizesUnderLoadAndStaysOrdered) {
  // Push far past the initial 64 buckets to force grows, then drain to
  // force shrinks, asserting order throughout.
  SimEnv env;
  std::mt19937_64 rng(7);
  std::vector<std::pair<SimTime, int>> expect;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = static_cast<SimTime>(rng() % 100000);
    expect.emplace_back(t, i);
    env.call_at(t, [] {});
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t at = 0;
  SimEnv env2;
  std::mt19937_64 rng2(7);
  bool ok = true;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = static_cast<SimTime>(rng2() % 100000);
    env2.call_at(t, [&, i, t] {
      if (at >= expect.size() || expect[at].first != t ||
          expect[at].second != i) {
        ok = false;
      }
      ++at;
    });
  }
  env2.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(at, expect.size());
  EXPECT_EQ(env2.pending_events(), 0u);
}

}  // namespace
}  // namespace vmic::sim
