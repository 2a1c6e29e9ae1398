#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
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
/// stream's head is queued, and it re-arms the next head when it fires.
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
  std::function<void(int)> fire_head = [&](int stream) {
    std::deque<Waiting>& queue = streams[stream];
    fired.push_back(queue.front().label);
    queue.pop_front();
    if (!queue.empty()) {
      engine.schedule_at(SimTime{queue.front().when}, queue.front().seq,
                         [&fire_head, stream] { fire_head(stream); });
    }
  };
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
            std::deque<Waiting>& queue = streams[action.stream];
            queue.push_back({action.when, engine.reserve_seq(), label});
            if (queue.size() == 1) {
              engine.schedule_at(SimTime{action.when}, queue.front().seq,
                                 [&fire_head, stream = action.stream] {
                                   fire_head(stream);
                                 });
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
  const std::uint64_t early = engine.reserve_seq();
  bool checked = false;
  engine.schedule_at(SimTime{10}, [&] {
    // The firing event's own time with an older seq: it would fire before
    // an event that has already fired.
    EXPECT_THROW(engine.schedule_at(SimTime{10}, early, [] {}),
                 std::invalid_argument);
    // A seq that reserve_seq() never handed out.
    EXPECT_THROW(engine.schedule_at(SimTime{20}, std::uint64_t{1000}, [] {}),
                 std::invalid_argument);
    EXPECT_NO_THROW(engine.schedule_at(SimTime{10}, engine.reserve_seq(), [] {}));
    EXPECT_NO_THROW(engine.schedule_at(SimTime{11}, early, [] {}));
    checked = true;
  });
  engine.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(engine.events_processed(), 3u);
  // Past the last event, the clock still bounds a reserved key.
  engine.run_until(SimTime{100});
  EXPECT_THROW(engine.schedule_at(SimTime{50}, engine.reserve_seq(), [] {}),
               std::invalid_argument);
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
