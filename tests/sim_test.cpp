#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "dproc/sim/engine.hpp"

namespace dproc::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), SimTime::zero());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  engine.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  engine.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime{100}, [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  SimTime observed;
  engine.schedule_after(seconds(2.0), [&] { observed = engine.now(); });
  engine.run();
  EXPECT_EQ(observed, SimTime::zero() + seconds(2.0));
}

TEST(Engine, ClockIsMonotoneThroughCallbacks) {
  Engine engine;
  SimTime last = SimTime::zero();
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(SimTime{i * 7 % 50}, [&] {
      EXPECT_GE(engine.now(), last);
      last = engine.now();
    });
  }
  engine.run();
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(SimTime{100}, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(SimTime{50}, [] {}), std::invalid_argument);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  bool fired = false;
  engine.schedule_after(seconds(-1.0), [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.schedule_after(seconds(1.0), [&] { fired = true; });
  handle.cancel();
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine engine;
  EventHandle handle = engine.schedule_after(seconds(1.0), [] {});
  engine.run();
  handle.cancel();
  handle.cancel();
}

TEST(Engine, CancelledEventsDontCountAsProcessed) {
  Engine engine;
  EventHandle handle = engine.schedule_after(seconds(1.0), [] {});
  engine.schedule_after(seconds(2.0), [] {});
  handle.cancel();
  engine.run();
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(Engine, PeriodicFiresAtPeriod) {
  Engine engine;
  std::vector<SimTime> fires;
  EventHandle timer = engine.schedule_periodic(seconds(1.0), [&] {
    fires.push_back(engine.now());
  });
  engine.run_until(SimTime::zero() + seconds(4.5));
  timer.cancel();
  ASSERT_EQ(fires.size(), 4u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i].ns(), seconds(static_cast<double>(i + 1)).ns());
  }
}

TEST(Engine, PeriodicCancelStopsChain) {
  Engine engine;
  int count = 0;
  EventHandle timer = engine.schedule_periodic(seconds(1.0), [&] { ++count; });
  engine.run_until(SimTime::zero() + seconds(2.5));
  timer.cancel();
  engine.run_until(SimTime::zero() + seconds(10.0));
  EXPECT_EQ(count, 2);
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine engine;
  int count = 0;
  EventHandle timer;
  timer = engine.schedule_periodic(seconds(1.0), [&] {
    if (++count == 3) timer.cancel();
  });
  engine.run_until(SimTime::zero() + seconds(10.0));
  EXPECT_EQ(count, 3);
}

TEST(Engine, NonPositivePeriodThrows) {
  Engine engine;
  EXPECT_THROW(engine.schedule_periodic(SimDuration::zero(), [] {}),
               std::invalid_argument);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(SimTime::zero() + seconds(5.0));
  EXPECT_EQ(engine.now(), SimTime::zero() + seconds(5.0));
}

TEST(Engine, RunUntilDoesNotFireLaterEvents) {
  Engine engine;
  bool fired = false;
  engine.schedule_after(seconds(10.0), [&] { fired = true; });
  engine.run_until(SimTime::zero() + seconds(5.0));
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, EventsScheduledFromCallbacksRun) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) engine.schedule_after(seconds(1.0), chain);
  };
  engine.schedule_after(seconds(1.0), chain);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), SimTime::zero() + seconds(5.0));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_after(seconds(1.0), [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // no-op
}

TEST(Engine, HandleStaysValidAfterFireUntilReset) {
  Engine engine;
  EventHandle handle = engine.schedule_after(seconds(1.0), [] {});
  engine.run();
  EXPECT_TRUE(handle.valid());
  handle = {};
  EXPECT_FALSE(handle.valid());
}

// --- reserved seqs --------------------------------------------------------

// One scheduling decision, taken by a tick event: a plain event (stream -1)
// or the next event of a stream whose times never decrease.
struct Action {
  int stream;
  std::int64_t when;
};

constexpr int kStreams = 3;
constexpr std::int64_t kTickNs = 10;

std::vector<std::vector<Action>> random_plan(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::int64_t> last(kStreams, 0);
  std::vector<std::vector<Action>> plan(200);
  for (std::size_t tick = 0; tick < plan.size(); ++tick) {
    const auto now = static_cast<std::int64_t>(tick) * kTickNs;
    const auto actions = rng() % 5;
    for (std::uint64_t k = 0; k < actions; ++k) {
      // Delays on a coarse grid, so timestamps collide across streams,
      // with plain events and with the ticks themselves.
      const auto when = now + static_cast<std::int64_t>(rng() % 4) * kTickNs;
      const int stream = static_cast<int>(rng() % (kStreams + 1)) - 1;
      if (stream < 0) {
        plan[tick].push_back({-1, when});
      } else {
        last[stream] = std::max(last[stream], when);
        plan[tick].push_back({stream, last[stream]});
      }
    }
  }
  return plan;
}

/// Every event scheduled when decided: the reference order.
std::vector<int> fire_eagerly(const std::vector<std::vector<Action>>& plan) {
  Engine engine;
  std::vector<int> fired;
  for (std::size_t tick = 0; tick < plan.size(); ++tick) {
    engine.schedule_at(SimTime{static_cast<std::int64_t>(tick) * kTickNs},
                       [&, tick] {
                         for (std::size_t k = 0; k < plan[tick].size(); ++k) {
                           const int label = static_cast<int>(tick * 100 + k);
                           engine.schedule_at(SimTime{plan[tick][k].when},
                                              [&fired, label] {
                                                fired.push_back(label);
                                              });
                         }
                       });
  }
  engine.run();
  return fired;
}

/// Stream events wait in per-stream FIFOs with a reserved seq; only each
/// stream's head is queued, as a sink key whose argument is the stream, and
/// it queues the next head when it fires.
std::vector<int> fire_through_reserved_seqs(
    const std::vector<std::vector<Action>>& plan) {
  struct Waiting {
    std::int64_t when;
    std::uint64_t seq;
    int label;
  };
  Engine engine;
  std::vector<int> fired;
  std::vector<std::deque<Waiting>> streams(kStreams);
  std::uint32_t sink = 0;
  sink = engine.add_sink([&](std::uint32_t stream) {
    std::deque<Waiting>& queue = streams[stream];
    fired.push_back(queue.front().label);
    queue.pop_front();
    if (!queue.empty()) {
      engine.schedule_to(SimTime{queue.front().when}, queue.front().seq, sink,
                         stream);
    }
  });
  for (std::size_t tick = 0; tick < plan.size(); ++tick) {
    engine.schedule_at(
        SimTime{static_cast<std::int64_t>(tick) * kTickNs}, [&, tick] {
          for (std::size_t k = 0; k < plan[tick].size(); ++k) {
            const Action& action = plan[tick][k];
            const int label = static_cast<int>(tick * 100 + k);
            if (action.stream < 0) {
              engine.schedule_at(SimTime{action.when},
                                 [&fired, label] { fired.push_back(label); });
              continue;
            }
            const auto stream = static_cast<std::uint32_t>(action.stream);
            std::deque<Waiting>& queue = streams[stream];
            queue.push_back({action.when, engine.reserve_seq(), label});
            if (queue.size() == 1) {
              engine.schedule_to(SimTime{action.when}, queue.front().seq, sink,
                                 stream);
            }
          }
        });
  }
  engine.run();
  return fired;
}

TEST(Engine, ReservedSeqStreamsFireInEagerOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto plan = random_plan(seed);
    const std::vector<int> eager = fire_eagerly(plan);
    ASSERT_GT(eager.size(), 300u);
    EXPECT_EQ(fire_through_reserved_seqs(plan), eager) << "seed " << seed;
  }
}

TEST(Engine, ReservedKeyNotAfterTheLastFiredEventThrows) {
  Engine engine;
  std::vector<std::uint32_t> args;
  const std::uint32_t sink =
      engine.add_sink([&](std::uint32_t arg) { args.push_back(arg); });
  const std::uint64_t early = engine.reserve_seq();
  bool checked = false;
  engine.schedule_at(SimTime{10}, [&] {
    // The firing event's own time with an older seq: it would fire before
    // an event that has already fired.
    EXPECT_THROW(engine.schedule_to(SimTime{10}, early, sink, 1),
                 std::invalid_argument);
    // A seq that reserve_seq() never handed out.
    EXPECT_THROW(engine.schedule_to(SimTime{20}, std::uint64_t{1000}, sink, 2),
                 std::invalid_argument);
    // Sink ids that add_sink() never returned.
    EXPECT_THROW(engine.schedule_to(SimTime{20}, early, sink + 1, 3),
                 std::invalid_argument);
    EXPECT_THROW(engine.schedule_to(SimTime{20}, early, 0, 4),
                 std::invalid_argument);
    EXPECT_NO_THROW(engine.schedule_to(SimTime{10}, engine.reserve_seq(), sink, 5));
    EXPECT_NO_THROW(engine.schedule_to(SimTime{11}, early, sink, 6));
    checked = true;
  });
  engine.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(args, (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(engine.events_processed(), 3u);
  // Past the last event, the clock still bounds a reserved key.
  engine.run_until(SimTime{100});
  EXPECT_THROW(engine.schedule_to(SimTime{50}, engine.reserve_seq(), sink, 7),
               std::invalid_argument);
}

TEST(Engine, SinkEventSetsTheClockCountsAndBecomesTheLastFired) {
  Engine engine;
  const std::uint64_t older = engine.reserve_seq();
  std::vector<std::int64_t> fired_at;
  std::uint32_t sink = 0;
  sink = engine.add_sink([&](std::uint32_t arg) {
    fired_at.push_back(engine.now().ns());
    if (arg == 1) {
      // This key, (5, its seq), is now the last fired: an older seq at the
      // same time would fire out of order.
      EXPECT_THROW(engine.schedule_to(SimTime{5}, older, sink, 2),
                   std::invalid_argument);
    }
  });
  engine.schedule_to(SimTime{5}, engine.reserve_seq(), sink, 1);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{5}));
  EXPECT_EQ(engine.now(), SimTime{5});
  EXPECT_EQ(engine.events_processed(), 1u);
}

// --- re-arm ---------------------------------------------------------------

TEST(Engine, RearmMovesAPendingEventLaterUnderOneKey) {
  Engine engine;
  std::vector<std::int64_t> fired;
  EventHandle timer =
      engine.schedule_at(SimTime{10}, [&] { fired.push_back(engine.now().ns()); });
  engine.schedule_at(SimTime{30}, [&] { fired.push_back(-30); });
  EXPECT_TRUE(timer.rearm(SimTime{20}));
  // The same time as the other event, re-armed after it: fires after it.
  EXPECT_TRUE(timer.rearm(SimTime{30}));
  EXPECT_FALSE(timer.rearm(SimTime{25})) << "earlier than its current time";
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.run_until(SimTime{20});
  EXPECT_TRUE(fired.empty()) << "the queued key is pushed again, not fired";
  EXPECT_EQ(engine.events_processed(), 0u);
  engine.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{-30, 30}));
  EXPECT_EQ(engine.events_processed(), 2u);
  EXPECT_FALSE(timer.rearm(SimTime{40})) << "fired";

  EventHandle cancelled = engine.schedule_after(seconds(1.0), [] {});
  cancelled.cancel();
  EXPECT_FALSE(cancelled.rearm(SimTime::zero() + seconds(2.0)));
  EventHandle periodic = engine.schedule_periodic(seconds(1.0), [] {});
  EXPECT_FALSE(periodic.rearm(SimTime::zero() + seconds(2.0)));
  periodic.cancel();
  EXPECT_FALSE(EventHandle{}.rearm(SimTime{50}));
}

TEST(Engine, RearmFromTheEventsOwnCallbackIsRefused) {
  // A one-shot stops being pending when it starts to fire: its slot is
  // released when the callback returns, so a re-arm from the callback must
  // be refused (and the callback schedules anew) rather than lost.
  Engine engine;
  EventHandle timer;
  int fired = 0;
  std::function<void()> on_timer = [&] {
    if (++fired > 1) return;
    EXPECT_FALSE(timer.rearm(SimTime{20}));
    timer = engine.schedule_at(SimTime{20}, on_timer);
  };
  timer = engine.schedule_at(SimTime{10}, on_timer);
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), SimTime{20});
}

// How often each kind of re-arm came up in a plan.
struct RearmKinds {
  int later = 0;
  int same_time = 0;
  int earlier = 0;
  int own_callback = 0;
  int fired_or_cancelled = 0;
};

/// A random plan of schedule, cancel and re-arm over a few timers, plain
/// events and a periodic event, decided by ticks and by the timers' own
/// callbacks. Each decision is drawn when an event takes it, from one
/// generator, so two runs of a seed take the same decisions as long as
/// they fire in the same order. `in_place` re-arms through rearm() where it
/// is allowed; otherwise every re-arm is cancel + schedule, the reference.
class RearmPlan {
 public:
  using Fired = std::pair<int, std::int64_t>;  // (label, time)

  RearmPlan(std::uint64_t seed, bool in_place) : rng_{seed}, in_place_{in_place} {}

  std::vector<Fired> run() {
    periodic_ = engine.schedule_periodic(SimDuration{2 * kTickNs}, [this] {
      record(kPeriodicLabel);
      act(-1);
    });
    for (std::int64_t tick = 0; tick < kTicks; ++tick) {
      engine.schedule_at(SimTime{tick * kTickNs}, [this] {
        for (auto n = rng_() % 4; n > 0; --n) act(-1);
      });
    }
    engine.schedule_at(SimTime{kTicks * kTickNs}, [this] { periodic_.cancel(); });
    engine.run();
    return fired_;
  }

  Engine engine;
  RearmKinds kinds;

 private:
  static constexpr int kTimers = 4;
  static constexpr std::int64_t kTicks = 150;
  static constexpr int kPeriodicLabel = 99;

  void record(int label) { fired_.emplace_back(label, engine.now().ns()); }

  /// One decision, taken by timer `self` (-1: a tick or the periodic).
  void act(int self) {
    const std::int64_t now = engine.now().ns();
    if (now >= kTicks * kTickNs) return;
    const auto k = static_cast<int>(rng_() % kTimers);
    switch (rng_() % 8) {
      case 0:
        timers_[k].cancel();
        pending_[k] = false;
        return;
      case 1: {
        const int label = next_label_++;
        const auto delay = static_cast<std::int64_t>(rng_() % 3) * kTickNs;
        engine.schedule_at(SimTime{now + delay}, [this, label] { record(label); });
        return;
      }
      case 2:
        if (in_place_) {
          EXPECT_FALSE(periodic_.rearm(SimTime{now + kTickNs}));
        }
        return;
      default: {
        // Around the timer's deadline (a tick earlier, the same time or a
        // tick later), or a fresh delay from now.
        std::int64_t when =
            rng_() % 2 == 0
                ? deadline_[k] + (static_cast<std::int64_t>(rng_() % 3) - 1) * kTickNs
                : now + static_cast<std::int64_t>(rng_() % 4) * kTickNs;
        rearm(self, k, std::max(when, now));
      }
    }
  }

  void rearm(int self, int k, std::int64_t when) {
    if (in_place_) {
      if (self == k) {
        ++kinds.own_callback;
      } else if (!pending_[k]) {
        ++kinds.fired_or_cancelled;
      } else if (when < deadline_[k]) {
        ++kinds.earlier;
      } else if (when == deadline_[k]) {
        ++kinds.same_time;
      } else {
        ++kinds.later;
      }
      const bool allowed = pending_[k] && when >= deadline_[k];
      const bool moved = timers_[k].rearm(SimTime{when});
      EXPECT_EQ(moved, allowed) << "timer " << k << " at " << engine.now().ns();
      if (moved) {
        deadline_[k] = when;
        return;
      }
    }
    timers_[k].cancel();
    timers_[k] = engine.schedule_at(SimTime{when}, [this, k] { on_timer(k); });
    pending_[k] = true;
    deadline_[k] = when;
  }

  void on_timer(int k) {
    pending_[k] = false;
    record(k);
    if (rng_() % 2 == 0) act(k);
  }

  std::mt19937_64 rng_;
  bool in_place_;
  std::array<EventHandle, kTimers> timers_{};
  std::array<bool, kTimers> pending_{};
  std::array<std::int64_t, kTimers> deadline_{};
  EventHandle periodic_;
  int next_label_ = 100;
  std::vector<Fired> fired_;
};

TEST(Engine, RearmFiresExactlyLikeCancelAndSchedule) {
  RearmKinds total;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RearmPlan reference{seed, false};
    RearmPlan in_place{seed, true};
    const std::vector<RearmPlan::Fired> expected = reference.run();
    ASSERT_GT(expected.size(), 200u);
    EXPECT_EQ(in_place.run(), expected) << "seed " << seed;
    EXPECT_EQ(in_place.engine.events_processed(),
              reference.engine.events_processed())
        << "seed " << seed;
    total.later += in_place.kinds.later;
    total.same_time += in_place.kinds.same_time;
    total.earlier += in_place.kinds.earlier;
    total.own_callback += in_place.kinds.own_callback;
    total.fired_or_cancelled += in_place.kinds.fired_or_cancelled;
  }
  EXPECT_GT(total.later, 400);
  EXPECT_GT(total.same_time, 300);
  EXPECT_GT(total.earlier, 200);
  EXPECT_GT(total.own_callback, 150);
  EXPECT_GT(total.fired_or_cancelled, 2000);
}

// --- callback lifetimes ---------------------------------------------------

// Owned only by its own pending callback, like a TCP connection whose RTO
// lambda holds shared_from_this().
struct OwnedByItsTimer : std::enable_shared_from_this<OwnedByItsTimer> {
  explicit OwnedByItsTimer(bool& destroyed) : destroyed(destroyed) {}
  ~OwnedByItsTimer() { destroyed = true; }

  void arm(Engine& engine) {
    timer = engine.schedule_after(seconds(1.0),
                                  [self = shared_from_this()] { self->fired = true; });
  }
  /// Cancels the timer, then reads this object's own fields.
  int stop() {
    timer.cancel();
    EXPECT_FALSE(destroyed) << "cancel() must not destroy the callback";
    return value + (fired ? 1 : 0);
  }

  bool& destroyed;
  EventHandle timer;
  bool fired = false;
  int value = 42;
};

TEST(Engine, CancelFromMemberOfObjectOwnedOnlyByTheCallback) {
  Engine engine;
  bool destroyed = false;
  OwnedByItsTimer* raw = nullptr;
  {
    auto owner = std::make_shared<OwnedByItsTimer>(destroyed);
    owner->arm(engine);
    raw = owner.get();
  }
  int stopped = 0;
  engine.schedule_after(seconds(0.5), [&] { stopped = raw->stop(); });
  engine.run();
  EXPECT_EQ(stopped, 42);
  EXPECT_TRUE(destroyed) << "the cancelled callback is freed when it pops";
}

// Cancels another event from its destructor, as ~TcpConnection does.
struct CancelsOnDestroy {
  CancelsOnDestroy(EventHandle* other, int* destroyed)
      : other(other), destroyed(destroyed) {}
  CancelsOnDestroy(const CancelsOnDestroy&) = delete;
  CancelsOnDestroy& operator=(const CancelsOnDestroy&) = delete;
  ~CancelsOnDestroy() {
    other->cancel();
    ++*destroyed;
  }

  EventHandle* other;
  int* destroyed;
};

TEST(Engine, DestructorToleratesCallbacksThatCancelOnDestroy) {
  constexpr int kEvents = 8;
  int destroyed = 0;
  std::vector<EventHandle> handles(kEvents);
  {
    Engine engine;
    for (int i = 0; i < kEvents; ++i) {
      auto guard = std::make_shared<CancelsOnDestroy>(
          &handles[(i + 1) % kEvents], &destroyed);
      if (i % 2 == 0) {
        handles[i] = engine.schedule_after(seconds(i + 1.0), [guard] {});
      } else {
        std::array<std::uint64_t, 16> ballast{};  // too big to store inline
        handles[i] = engine.schedule_after(seconds(i + 1.0),
                                           [guard, ballast] { (void)ballast; });
      }
    }
    engine.run_until(SimTime::zero() + seconds(0.5));
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, kEvents);
}

TEST(Engine, StaleHandleDoesNotCancelTheSlotsNextEvent) {
  Engine engine;
  EventHandle fired_handle = engine.schedule_after(seconds(1.0), [] {});
  EventHandle cancelled_handle = engine.schedule_after(seconds(1.0), [] {});
  cancelled_handle.cancel();
  engine.run();

  // Both slots are free again; the next events take them.
  int fired = 0;
  engine.schedule_after(seconds(1.0), [&] { ++fired; });
  engine.schedule_after(seconds(1.0), [&] { ++fired; });
  fired_handle.cancel();
  cancelled_handle.cancel();
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, LargeCallableFiresAndIsFreed) {
  Engine engine;
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 16> payload{};  // 128 bytes: stored out of line
  payload[15] = 7;
  std::uint64_t seen = 0;
  engine.schedule_after(seconds(1.0),
                        [payload, token, &seen] { seen = payload[15]; });
  EventHandle cancelled = engine.schedule_after(
      seconds(2.0), [payload, token, &seen] { seen = payload[0]; });
  cancelled.cancel();
  EXPECT_EQ(token.use_count(), 3);
  engine.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(token.use_count(), 1) << "both callables must be freed";
}

}  // namespace
}  // namespace dproc::sim
