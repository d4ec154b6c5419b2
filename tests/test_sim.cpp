// Unit tests for the discrete-event core and the deadline-based CPU
// scheduler (paper §4.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace dash::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(msec(30), [&] { order.push_back(3); });
  s.at(msec(10), [&] { order.push_back(1); });
  s.at(msec(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(msec(5), [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterIsRelative) {
  Simulator s;
  Time fired = -1;
  s.at(msec(10), [&] { s.after(msec(5), [&] { fired = s.now(); }); });
  s.run();
  EXPECT_EQ(fired, msec(15));
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator s;
  Time fired = -1;
  s.at(msec(10), [&] {
    s.at(msec(1), [&] { fired = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(fired, msec(10));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator s;
  int count = 0;
  s.at(msec(1), [&] { ++count; });
  s.at(msec(100), [&] { ++count; });
  s.run_until(msec(50));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), msec(50));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CascadedEventsFromCallbacks) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.after(usec(1), recurse);
  };
  s.after(usec(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), usec(5));
}

// ------------------------------------------------------------- Task

TEST(Task, SmallClosuresStoreInline) {
  struct Small {
    void* a;
    std::uint64_t b, c;
    void operator()() {}
  };
  static_assert(Task::fits_inline<Small>());
  Task t = Small{};
  EXPECT_FALSE(t.heap_allocated());
}

TEST(Task, OversizedClosuresFallBackToHeap) {
  struct Big {
    char blob[Task::kInlineSize + 1];
    void operator()() {}
  };
  static_assert(!Task::fits_inline<Big>());
  Task t = Big{};
  EXPECT_TRUE(t.heap_allocated());
  t();  // still invocable through the heap cell
}

TEST(Task, MoveTransfersOwnershipWithoutDoubleDestroy) {
  struct Counted {
    int* live;
    explicit Counted(int* l) : live(l) { ++*live; }
    Counted(Counted&& o) noexcept : live(o.live) { ++*live; }
    ~Counted() { --*live; }
    void operator()() {}
  };
  int live = 0;
  {
    Task a = Counted(&live);
    Task b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    Task c;
    c = std::move(b);
    c();
  }
  EXPECT_EQ(live, 0);
}

TEST(Task, InvokesMovedClosureExactlyOnce) {
  int calls = 0;
  Task t = [&calls] { ++calls; };
  Task u = std::move(t);
  u();
  EXPECT_EQ(calls, 1);
}

// ------------------------------------------------------------ timers

TEST(Timers, CancelRemovesFromPendingImmediately) {
  Simulator s;
  bool fired = false;
  TimerHandle h = s.timer_after(msec(5), [&] { fired = true; });
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_TRUE(s.timer_active(h));
  EXPECT_TRUE(s.cancel(h));
  EXPECT_EQ(s.pending(), 0u) << "cancelled timer must leave pending() now";
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.stored(), 0u);  // tombstone swept by run()
}

TEST(Timers, CancelDestroysClosureAtCancelTime) {
  Simulator s;
  auto token = std::make_shared<int>(7);
  TimerHandle h = s.timer_after(msec(1), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  s.cancel(h);
  EXPECT_EQ(token.use_count(), 1)
      << "closure must be destroyed when cancelled, not when reached";
}

TEST(Timers, InertAndDoubleCancelAreNoOps) {
  Simulator s;
  TimerHandle inert;
  EXPECT_FALSE(s.cancel(inert));
  TimerHandle h = s.timer_after(msec(1), [] {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));  // handle was reset by the first cancel
  EXPECT_EQ(s.stats().timers_cancelled, 1u);
}

TEST(Timers, CancelAfterFireReturnsFalse) {
  Simulator s;
  int fired = 0;
  TimerHandle h = s.timer_after(msec(1), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.timer_active(h));
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(fired, 1);
}

TEST(Timers, SlotReuseDoesNotResurrectOldHandles) {
  Simulator s;
  bool old_fired = false;
  bool new_fired = false;
  TimerHandle old_h = s.timer_after(msec(1), [&] { old_fired = true; });
  s.cancel(old_h);
  // The recycled slot goes to a new timer; the stale handle must not be
  // able to cancel it.
  TimerHandle new_h = s.timer_after(msec(2), [&] { new_fired = true; });
  EXPECT_FALSE(s.cancel(old_h));
  EXPECT_TRUE(s.timer_active(new_h));
  s.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(Timers, RetransmitShapeLeavesNoResidue) {
  // The ST/RKOM control shape: arm a retransmit timer, reply lands first
  // and cancels it. After many rounds nothing must accumulate.
  Simulator s;
  int replies = 0;
  for (int i = 0; i < 1000; ++i) {
    auto h = std::make_shared<TimerHandle>();
    *h = s.timer_after(msec(100), [] { FAIL() << "retransmit fired"; });
    s.after(usec(50) * (i + 1), [&s, &replies, h] {
      s.cancel(*h);
      ++replies;
    });
  }
  s.run();
  EXPECT_EQ(replies, 1000);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.stored(), 0u);
  EXPECT_EQ(s.stats().timers_cancelled, 1000u);
}

TEST(Timers, RunUntilBoundaryIgnoresCancelledEntryAtBoundary) {
  Simulator s;
  int fired = 0;
  TimerHandle h = s.timer_at(msec(10), [&] { ++fired; });
  s.at(msec(20), [&] { ++fired; });
  s.cancel(h);
  // The earliest *live* event is at 20 ms; the cancelled entry's 10 ms
  // tombstone must not stop the boundary check.
  s.run_until(msec(15));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now(), msec(15));
  s.run_until(msec(25));
  EXPECT_EQ(fired, 1);
}

// --------------------------------------------------- calendar engine

TEST(CalendarEngine, FarFutureEventsUseOverflowAndStillOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(sec(30), [&] { order.push_back(3); });   // far beyond the window
  s.at(usec(1), [&] { order.push_back(1); });
  s.at(sec(10), [&] { order.push_back(2); });   // also overflow
  s.at(sec(30), [&] { order.push_back(4); });   // FIFO tie in overflow
  EXPECT_GE(s.stats().overflow_events, 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), sec(30));
}

TEST(CalendarEngine, EqualTimesRunFifoAcrossTiers) {
  // Ties at a timestamp that is first admitted to the overflow tier and
  // then re-admitted to the wheel as time advances must stay FIFO.
  Simulator s;
  std::vector<int> order;
  const Time t = sec(5);
  for (int i = 0; i < 8; ++i) s.at(t, [&order, i] { order.push_back(i); });
  s.at(msec(1), [&s, &order, t] {
    // Scheduled later => larger seq => must run after the first eight.
    for (int i = 8; i < 12; ++i) s.at(t, [&order, i] { order.push_back(i); });
  });
  s.run();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(CalendarEngine, SchedulingIntoTheOpenBucketKeepsOrder) {
  // A callback schedules another event into the bucket currently being
  // drained (zero-delay and sub-bucket delays): it must run this sweep,
  // after the entries already ahead of it.
  Simulator s;
  std::vector<int> order;
  s.at(usec(1), [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(3); });
  });
  s.at(usec(1), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ------------------------------------------------ heap reference oracle
//
// A plain binary heap over the same (time, seq) order as the Simulator,
// with the part of its API the comparison scenarios use. seq counts every
// at/timer call, so ties break exactly as they do in the calendar queue; a
// cancelled timer stays in the heap and is skipped when it surfaces. The
// calendar queue is an optimization, never a behaviour change: every
// scenario below must execute identically on both.
class HeapOracle {
 public:
  /// Cancellation ticket, in the role of sim::TimerHandle.
  struct Handle {
    std::uint64_t seq = kNoTimer;
  };

  Time now() const { return now_; }
  /// Counts only `executed` and `timers_cancelled`.
  const EngineStats& stats() const { return stats_; }

  void at(Time t, Task fn) { push(t, std::move(fn), false); }
  void after(Time delay, Task fn) { at(now_ + delay, std::move(fn)); }

  Handle timer_at(Time t, Task fn) {
    const std::uint64_t seq = push(t, std::move(fn), true);
    live_timers_.insert(seq);
    return Handle{seq};
  }
  Handle timer_after(Time delay, Task fn) {
    return timer_at(now_ + delay, std::move(fn));
  }

  bool cancel(Handle& h) {
    const bool live = live_timers_.erase(h.seq) > 0;
    h = Handle();
    if (live) ++stats_.timers_cancelled;
    return live;
  }

  bool step() {
    if (peek() == nullptr) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    if (e.timer) live_timers_.erase(e.seq);
    now_ = e.time;
    ++stats_.executed;
    e.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(Time t) {
    for (const Entry* e = peek(); e != nullptr && e->time <= t; e = peek()) {
      step();
    }
    if (now_ < t) now_ = t;
  }

 private:
  static constexpr std::uint64_t kNoTimer = ~0ull;

  struct Entry {
    Time time = 0;
    std::uint64_t seq = 0;
    bool timer = false;
    Task fn;
  };

  // std::push_heap builds a max-heap: "later" puts the earliest on top.
  static bool later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::uint64_t push(Time t, Task fn, bool timer) {
    Entry e;
    e.time = t < now_ ? now_ : t;
    e.seq = next_seq_++;
    e.timer = timer;
    e.fn = std::move(fn);
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), later);
    return next_seq_ - 1;
  }

  /// Earliest live entry, after discarding cancelled timers on top.
  const Entry* peek() {
    while (!heap_.empty() && heap_.front().timer &&
           !live_timers_.contains(heap_.front().seq)) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
    }
    return heap_.empty() ? nullptr : &heap_.front();
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
  std::unordered_set<std::uint64_t> live_timers_;
  EngineStats stats_;
};

/// The timer handle type of an engine (Simulator or HeapOracle).
template <typename Engine>
using HandleOf = decltype(std::declval<Engine&>().timer_at(Time{}, Task()));

// Runs `scenario` on the Simulator and on the heap oracle and returns the
// two executed (time, id) sequences for comparison.
using Executed = std::vector<std::pair<Time, int>>;
template <typename Scenario>
std::pair<Executed, Executed> run_both_engines(Scenario scenario) {
  Executed calendar;
  Executed heap;
  {
    Simulator s;
    scenario(s, calendar);
  }
  {
    HeapOracle s;
    scenario(s, heap);
  }
  return {calendar, heap};
}

TEST(CalendarEngine, CancelAcrossWindowJumpMatchesHeap) {
  // A timer armed beyond the wheel's window lands in the overflow tier;
  // cancelling it *after* the wheel has jumped windows (and possibly
  // refilled the slot) must still suppress it, leaving a tombstone that
  // the sweep skips without disturbing its neighbours.
  auto [cal, heap] = run_both_engines([](auto& s, Executed& out) {
    auto record = [&](int id) {
      return [&s, &out, id] { out.emplace_back(s.now(), id); };
    };
    auto doomed = s.timer_at(msec(50), record(99));
    s.at(msec(49), record(1));
    s.at(msec(50), record(2));  // same instant as the doomed timer
    s.at(msec(50), record(5));  // ...and as record(2): runs after it
    s.at(msec(51), record(3));
    s.run_until(msec(20));  // jump several 4.2ms windows forward
    EXPECT_TRUE(s.cancel(doomed));
    s.at(msec(52), record(4));
    s.run();
  });
  EXPECT_EQ(cal, heap);
  ASSERT_EQ(cal.size(), 5u);
  for (const auto& [t, id] : cal) EXPECT_NE(id, 99);
}

TEST(CalendarEngine, RunUntilExactlyOnBucketBoundaryMatchesHeap) {
  // t = 8192 is the first tick of bucket 1 (8192 ns buckets): run_until
  // landing exactly on the boundary must run the boundary event and leave
  // the next bucket's strictly-later events pending.
  const Time boundary = Time{1} << 13;
  auto [cal, heap] = run_both_engines([&](auto& s, Executed& out) {
    auto record = [&](int id) {
      return [&s, &out, id] { out.emplace_back(s.now(), id); };
    };
    s.at(boundary - 1, record(1));
    s.at(boundary, record(2));
    s.at(boundary + 1, record(3));
    s.at(boundary, record(4));
    s.run_until(boundary);
    EXPECT_EQ(s.now(), boundary);
    EXPECT_EQ(out.size(), 3u);  // events <= t ran, boundary+1 did not
    s.run();
  });
  EXPECT_EQ(cal, heap);
  ASSERT_EQ(cal.size(), 4u);
  EXPECT_EQ(cal[1], (std::pair<Time, int>{boundary, 2}));
  EXPECT_EQ(cal[2], (std::pair<Time, int>{boundary, 4}));
}

TEST(CalendarEngine, OverflowRefillSkipsTombstonesMatchesHeap) {
  // Many timers far past the window, four per instant, every other one
  // cancelled while still in the overflow tier: each window refill must
  // carry the tombstones along (or purge them) without reordering the
  // survivors, including the two that share each instant.
  auto [cal, heap] = run_both_engines([](auto& s, Executed& out) {
    std::vector<HandleOf<decltype(s)>> handles;
    for (int i = 0; i < 64; ++i) {
      const Time t = msec(10) + static_cast<Time>(i / 4) * msec(4);  // spans many windows
      const int id = i;
      handles.push_back(s.timer_at(t, [&s, &out, id] {
        out.emplace_back(s.now(), id);
      }));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      EXPECT_TRUE(s.cancel(handles[i]));
    }
    s.run();
  });
  EXPECT_EQ(cal, heap);
  ASSERT_EQ(cal.size(), 32u);
  for (std::size_t i = 0; i < cal.size(); ++i) {
    EXPECT_EQ(cal[i].second % 2, 1) << "even ids were cancelled";
  }
}

TEST(Simulator, RunForIsRelativeToCurrentClock) {
  Simulator s;
  int hits = 0;
  s.at(msec(3), [&] { ++hits; });
  s.at(msec(7), [&] { ++hits; });
  s.run_until(msec(2));
  s.run_for(msec(2));  // now = 4ms: first event ran
  EXPECT_EQ(s.now(), msec(4));
  EXPECT_EQ(hits, 1);
  s.run_for(msec(3));  // now = 7ms: boundary-inclusive like run_until
  EXPECT_EQ(s.now(), msec(7));
  EXPECT_EQ(hits, 2);
}

TEST(CalendarEngine, StatsCountInlineVsHeapTasks) {
  Simulator s;
  s.after(1, [] {});  // captureless: inline
  struct Big {
    char blob[128];
  };
  Big big{};
  s.after(2, [big] { (void)big; });  // 128-byte capture: heap
  s.run();
  EXPECT_EQ(s.stats().scheduled, 2u);
  EXPECT_EQ(s.stats().scheduled_inline, 1u);
  EXPECT_EQ(s.stats().scheduled_heap, 1u);
  EXPECT_EQ(s.stats().executed, 2u);
  EXPECT_EQ(s.stats().peak_pending, 2u);
}

// ------------------------------------------------------ determinism
//
// The calendar queue exists for speed; the heap oracle exists to prove it
// changes nothing. A seeded workload shaped like the repo's benches (c2-like
// paced sources + c8-like request/reply timer churn) must produce a
// bit-identical event trace under both ready structures.

namespace determinism {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename Engine>
struct Actor {
  Engine* sim;
  Trace* trace;
  std::uint64_t id;
  std::uint64_t seq = 0;
  std::size_t budget;
  HandleOf<Engine> retry;

  void fire() {
    trace->record(sim->now(), "actor", std::to_string(id) + ":" +
                                           std::to_string(seq));
    if (++seq >= budget) {
      sim->cancel(retry);
      return;
    }
    const std::uint64_t r = mix(id * 0x51ed2701u + seq);
    // Paced-source shape: reschedule at a pseudo-random near delay; every
    // fourth step jumps far enough to land in the overflow tier, and every
    // fourth waits for the next 50 us tick shared by all actors, so
    // different actors often fire at the same instant and their FIFO order
    // shows in the trace.
    Time delta = static_cast<Time>(r % usec(200));
    if (r % 4 == 0) delta = msec(20) + static_cast<Time>(r % msec(5));
    if (r % 4 == 1) delta = usec(50) - sim->now() % usec(50);
    sim->after(delta, [this] { fire(); });
    // Request/reply shape: re-arm the retransmit timer; cancel and replace
    // it on a schedule so slots recycle differently over the run.
    if (r % 3 == 0) {
      sim->cancel(retry);
      retry = sim->timer_after(msec(50) + static_cast<Time>(r % msec(1)),
                               [this] {
                                 trace->record(sim->now(), "retry",
                                               std::to_string(id));
                               });
    }
  }
};

struct RunResult {
  std::string trace_text;
  Time final_now;
  std::uint64_t executed;
  std::uint64_t cancelled;
};

template <typename Engine>
RunResult run(std::uint64_t seed, int actors, std::size_t budget) {
  Engine sim;
  Trace trace(1u << 20);
  std::vector<Actor<Engine>> v;
  v.reserve(static_cast<std::size_t>(actors));
  for (int i = 0; i < actors; ++i) {
    v.push_back(Actor<Engine>{&sim, &trace, seed + static_cast<std::uint64_t>(i), 0,
                      budget, {}});
  }
  for (auto& a : v) {
    sim.at(static_cast<Time>(mix(a.id) % usec(50)), [&a] { a.fire(); });
  }
  sim.run();
  RunResult r;
  r.trace_text = trace.to_string();
  r.final_now = sim.now();
  r.executed = sim.stats().executed;
  r.cancelled = sim.stats().timers_cancelled;
  return r;
}

}  // namespace determinism

TEST(Determinism, CalendarAndHeapProduceIdenticalTraces) {
  for (std::uint64_t seed : {11ull, 17ull, 99ull}) {
    const auto cal = determinism::run<Simulator>(seed, /*actors=*/16,
                                                 /*budget=*/400);
    const auto heap = determinism::run<HeapOracle>(seed, /*actors=*/16,
                                                   /*budget=*/400);
    EXPECT_EQ(cal.final_now, heap.final_now) << "seed " << seed;
    EXPECT_EQ(cal.executed, heap.executed) << "seed " << seed;
    EXPECT_EQ(cal.cancelled, heap.cancelled) << "seed " << seed;
    ASSERT_EQ(cal.trace_text, heap.trace_text) << "seed " << seed;
  }
}

TEST(Determinism, RepeatRunsAreBitIdentical) {
  const auto a = determinism::run<Simulator>(7, 8, 200);
  const auto b = determinism::run<Simulator>(7, 8, 200);
  EXPECT_EQ(a.trace_text, b.trace_text);
  EXPECT_EQ(a.executed, b.executed);
}

// ------------------------------------------------------- CpuScheduler

TEST(CpuScheduler, ExecutesSubmittedTask) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kEdf);
  Time completed = -1;
  cpu.submit(msec(10), usec(100), [&] { completed = sim.now(); });
  sim.run();
  EXPECT_EQ(completed, usec(100));
  EXPECT_EQ(cpu.tasks_completed(), 1u);
  EXPECT_EQ(cpu.busy_time(), usec(100));
}

// Queued protocol work carries its message or packet, so the CPU queues a
// wider task than the engine: a closure too big for an event stays inline
// here, and only one too big for both pays a heap cell — and is counted.
TEST(CpuScheduler, WideClosuresStayInlineAndOversizedOnesAreCounted) {
  struct Wide {
    int* ran;
    char blob[128];
    void operator()() { ++*ran; }
  };
  struct Oversized {
    int* ran;
    char blob[CpuScheduler::Task::kInlineSize];
    void operator()() { ++*ran; }
  };
  static_assert(!Task::fits_inline<Wide>());
  static_assert(CpuScheduler::Task::fits_inline<Wide>());
  static_assert(!CpuScheduler::Task::fits_inline<Oversized>());
  // Engine events stay at 64 inline bytes.
  static_assert(Task::kInlineSize == 64);

  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kEdf);
  int ran = 0;
  cpu.submit(msec(1), usec(10), Wide{&ran, {}});
  EXPECT_EQ(cpu.heap_fallbacks(), 0u);
  cpu.submit(msec(2), usec(10), Oversized{&ran, {}});
  EXPECT_EQ(cpu.heap_fallbacks(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(cpu.tasks_completed(), 2u);
  EXPECT_EQ(sim.stats().scheduled_heap, 0u);  // completions carry only `this`
}

TEST(CpuScheduler, EdfOrdersByDeadline) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kEdf);
  std::vector<char> order;
  // Kick off at t=0: the first submit dispatches immediately; the rest
  // queue while it runs and are then chosen by deadline.
  cpu.submit(msec(100), usec(10), [&] { order.push_back('a'); });
  cpu.submit(msec(50), usec(10), [&] { order.push_back('b'); });
  cpu.submit(msec(10), usec(10), [&] { order.push_back('c'); });
  cpu.submit(msec(60), usec(10), [&] { order.push_back('d'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b', 'd'}));
}

TEST(CpuScheduler, FifoIgnoresDeadlines) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kFifo);
  std::vector<char> order;
  cpu.submit(msec(100), usec(10), [&] { order.push_back('a'); });
  cpu.submit(msec(1), usec(10), [&] { order.push_back('b'); });
  cpu.submit(msec(50), usec(10), [&] { order.push_back('c'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(CpuScheduler, PriorityPolicyOrdersByPriority) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kPriority);
  std::vector<char> order;
  cpu.submit(msec(1), usec(10), [&] { order.push_back('a'); }, 5);
  cpu.submit(msec(1), usec(10), [&] { order.push_back('b'); }, 9);
  cpu.submit(msec(1), usec(10), [&] { order.push_back('c'); }, 0);
  cpu.submit(msec(1), usec(10), [&] { order.push_back('d'); }, 5);
  sim.run();
  // 'a' dispatched immediately; then priority 0, then the two 5s in FIFO
  // order, then 9.
  EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'd', 'b'}));
}

TEST(CpuScheduler, NonPreemptive) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kEdf);
  std::vector<char> order;
  cpu.submit(msec(100), msec(1), [&] { order.push_back('a'); });
  // Arrives while 'a' runs, with an earlier deadline — must still wait.
  sim.at(usec(100), [&] { cpu.submit(usec(200), usec(10), [&] { order.push_back('b'); }); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(sim.now(), msec(1) + usec(10));
}

TEST(CpuScheduler, BusyTimeAccumulates) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kFifo);
  for (int i = 0; i < 5; ++i) cpu.submit(msec(1), usec(100), [] {});
  sim.run();
  EXPECT_EQ(cpu.busy_time(), usec(500));
  EXPECT_EQ(cpu.tasks_submitted(), 5u);
  EXPECT_EQ(cpu.tasks_completed(), 5u);
}

TEST(CpuScheduler, TasksSubmittedFromTasksRun) {
  Simulator sim;
  CpuScheduler cpu(sim, CpuPolicy::kEdf);
  bool inner = false;
  cpu.submit(msec(1), usec(10), [&] {
    cpu.submit(msec(2), usec(10), [&] { inner = true; });
  });
  sim.run();
  EXPECT_TRUE(inner);
}

// EDF property: on a feasible task set (arrivals at t=0, unit costs), EDF
// meets every deadline while FIFO misses some.
TEST(CpuScheduler, EdfMeetsFeasibleDeadlinesWhereFifoMisses) {
  constexpr int kTasks = 10;
  const Time cost = usec(100);

  auto run = [&](CpuPolicy policy) {
    Simulator sim;
    CpuScheduler cpu(sim, policy);
    int misses = 0;
    // A warmup task seizes the (non-preemptive) CPU so the real tasks all
    // queue and are then ordered purely by policy.
    const Time warmup = usec(10);
    cpu.submit(kTimeNever, warmup, [] {});
    // Deadlines staggered tightly: task i is feasible iff it runs i-th.
    // Submitted in reverse order so FIFO runs them worst-first.
    for (int i = kTasks - 1; i >= 0; --i) {
      const Time deadline = warmup + cost * (i + 1);
      cpu.submit(deadline, cost, [&, deadline] {
        if (sim.now() > deadline) ++misses;
      });
    }
    sim.run();
    return misses;
  };

  EXPECT_EQ(run(CpuPolicy::kEdf), 0);
  EXPECT_GT(run(CpuPolicy::kFifo), 0);
}

// ---------------------------------------------------------------- trace

TEST(Trace, RecordsAndCounts) {
  Trace t;
  t.record(msec(1), "net", "packet sent");
  t.record(msec(2), "net", "packet delivered");
  t.record(msec(3), "st", "mux");
  EXPECT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.count("net"), 2u);
  EXPECT_EQ(t.count("st"), 1u);
  EXPECT_EQ(t.count("missing"), 0u);
}

TEST(Trace, DisableStopsRecording) {
  Trace t;
  t.enable(false);
  t.record(1, "x", "y");
  EXPECT_TRUE(t.records().empty());
}

TEST(Trace, ToStringContainsDetails) {
  Trace t;
  t.record(msec(1), "net", "hello");
  const auto s = t.to_string();
  EXPECT_NE(s.find("net"), std::string::npos);
  EXPECT_NE(s.find("hello"), std::string::npos);
  EXPECT_NE(s.find("1.000ms"), std::string::npos);
}

}  // namespace
}  // namespace dash::sim
