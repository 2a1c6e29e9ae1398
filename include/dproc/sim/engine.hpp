// Discrete-event simulation engine.
//
// The entire cluster — kernels, network fabric, workloads — runs as callbacks
// on one virtual clock. Events fire in non-decreasing time order; ties are
// broken by scheduling order (FIFO), which makes runs fully deterministic:
// the same seed and the same program produce the same trace, a property the
// test suite asserts.
//
// The queue holds small keys, not callbacks: a 4-ary min-heap of 24-byte
// (when, seq, slot, gen) keys over a slab of callback slots. A callable of
// up to 48 bytes lives inline in its slot (a larger one on the heap), so
// once the slab and the heap have grown, scheduling a typical lambda
// allocates nothing. Cancelling bumps the slot's generation; a key whose
// generation no longer matches its slot is skipped when it reaches the top,
// and only then is its callable destroyed. Re-arming a pending event to a
// later time moves the key its slot records, not the queued one: that key
// is pushed again at the recorded one when it reaches the top.
//
// A stream whose events all go to one handler (a link's packet exits)
// skips the slab: the handler is registered once as a sink, and each key
// names the sink and carries a 32-bit argument in place of a slot and a
// generation. Such a key cannot be cancelled and builds nothing to fire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "dproc/util/slab.hpp"
#include "dproc/util/time.hpp"

namespace dproc::sim {

class Engine;

/// Cancellation handle for a scheduled event: its engine, its callback slot
/// and the slot's generation when it was scheduled. Copyable; cancelling
/// any copy cancels the event, and cancelling one that already fired or was
/// cancelled does nothing. A default-constructed handle is inert. A handle
/// points at its engine and must not outlive it: cancel() after the engine
/// is destroyed is undefined (destroying the handle itself is always fine).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Idempotent; safe after the event fired.
  void cancel();

  /// Moves a pending one-shot event to `when` in place, taking the seq
  /// schedule_at(when, fn) would take now, so it fires exactly where
  /// cancelling it and scheduling its callback anew at `when` would. Returns
  /// false and changes nothing if the event is periodic, is not pending (it
  /// fired, is firing or was cancelled) or `when` is before its current
  /// time; the caller then cancels and schedules instead.
  [[nodiscard]] bool rearm(SimTime when);

  /// True from scheduling until the handle is reset to a default one,
  /// whether or not the event has fired or been cancelled in between.
  [[nodiscard]] bool valid() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn`, any `void()` callable, at absolute time `when`;
  /// `when` must be >= now().
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    if (when < now_) {
      throw std::invalid_argument{"Engine::schedule_at: time in the past"};
    }
    return push(when, next_seq_++, SimDuration::zero(), std::forward<F>(fn));
  }

  /// Registers `fn` as a sink and returns its id, for schedule_to(). The
  /// sink lives as long as the engine. Not to be called from a sink.
  std::uint32_t add_sink(std::function<void(std::uint32_t)> fn) {
    sinks_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(sinks_.size() - 1) | kSinkBit;
  }

  /// Queues a call of sink `sink` with `arg` at `when`, under a tie-break
  /// number taken earlier from reserve_seq(), so it fires exactly where an
  /// event scheduled at the moment of reservation would have. It fires and
  /// counts like any event but cannot be cancelled. Meant for streams whose
  /// keys only grow: `when` must be >= now() and (when, seq) must come
  /// after the event fired last, else the firing order would break.
  void schedule_to(SimTime when, std::uint64_t seq, std::uint32_t sink,
                   std::uint32_t arg) {
    // when >= now_ >= fired_when_ns_, so only an equal time needs the seq.
    if (when < now_ || seq >= next_seq_ ||
        (when.ns() == fired_when_ns_ && seq <= fired_seq_) ||
        (sink ^ kSinkBit) >= sinks_.size()) {
      throw std::invalid_argument{
          "Engine::schedule_to: reserved key is not after the last event fired"};
    }
    heap_push(Key{when.ns(), seq, sink, arg});
  }

  /// Schedules `fn` after `delay` (clamped to >= 0) from now.
  template <typename F>
  EventHandle schedule_after(SimDuration delay, F&& fn) {
    if (delay < SimDuration::zero()) delay = SimDuration::zero();
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` every `period`, first firing after one period, until
  /// the handle is cancelled. Each firing re-queues the same slot with a
  /// fresh seq taken after `fn` returns.
  template <typename F>
  EventHandle schedule_periodic(SimDuration period, F&& fn) {
    if (period <= SimDuration::zero()) {
      throw std::invalid_argument{"Engine::schedule_periodic: period must be > 0"};
    }
    return push(now_ + period, next_seq_++, period, std::forward<F>(fn));
  }

  /// Takes the tie-break number that scheduling would take now, for a later
  /// schedule_to().
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Runs events until the queue is empty or `deadline` is reached; the
  /// clock is advanced to `deadline` on return (even if idle earlier).
  void run_until(SimTime deadline);

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Runs until the event queue drains completely.
  void run();

  /// Processes a single event if one is pending; returns false when empty.
  bool step();

  /// Keys in the queue, counting cancelled events not yet popped (a
  /// re-armed event has one key however often it was re-armed).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Always 0: cancelling bumps a generation and allocates nothing. Kept
  /// because the macro benchmark reports it.
  [[nodiscard]] std::uint64_t cancel_flags_allocated() const { return 0; }

 private:
  friend class EventHandle;

  struct Key {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;  // a sink id (kSinkBit set) for schedule_to()
    std::uint32_t gen;   // the slot's generation when pushed; a sink's arg
  };

  static constexpr std::uint32_t kSinkBit = std::uint32_t{1} << 31;

  /// Type-erased operations on the callable stored in a slot.
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage);
  };

  static constexpr std::size_t kInlineBytes = 48;

  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    const Ops* ops = nullptr;    // null while no callable lives here
    std::int64_t period_ns = 0;  // > 0 for a periodic timer
    // The event's live key. The queued key differs only after a re-arm.
    std::int64_t when_ns = 0;
    std::uint64_t seq = 0;
    // Bumped by cancel(), as a one-shot starts to fire and on release, so
    // a stale handle never matches the slot's next occupant (barring 2^32
    // bumps while the handle is held).
    std::uint32_t gen = 0;
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);

  template <typename Fn>
  static void invoke_as(void* p) { (*static_cast<Fn*>(p))(); }
  template <typename Fn>
  static void destroy_as(void* p) { static_cast<Fn*>(p)->~Fn(); }
  template <typename Fn>
  static constexpr Ops kOps{&invoke_as<Fn>, &destroy_as<Fn>};

  template <typename F>
  EventHandle push(SimTime when, std::uint64_t seq, SimDuration period,
                   F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (!kFitsInline<Fn>) {
      // Too big for a slot: the slot holds a pointer that owns it.
      return push(when, seq, period,
                  [boxed = std::make_unique<Fn>(std::forward<F>(fn))] {
                    (*boxed)();
                  });
    } else {
      const std::uint32_t index = slots_.acquire();
      Slot& slot = slots_[index];
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
      slot.ops = &kOps<Fn>;
      slot.period_ns = period.ns();
      slot.when_ns = when.ns();
      slot.seq = seq;
      heap_push(Key{when.ns(), seq, index, slot.gen});
      return EventHandle{this, index, slot.gen};
    }
  }

  void cancel(std::uint32_t index, std::uint32_t gen) {
    Slot& slot = slots_[index];
    if (slot.gen == gen) ++slot.gen;
  }
  bool rearm(std::uint32_t index, std::uint32_t gen, SimTime when) {
    Slot& slot = slots_[index];
    if (slot.gen != gen || slot.period_ns > 0 || when.ns() < slot.when_ns) {
      return false;
    }
    slot.when_ns = when.ns();
    slot.seq = next_seq_++;
    return true;
  }

  // (when_ns, seq) compared as one unsigned 128-bit number, which the
  // sifts turn into conditional moves rather than branches. Valid because
  // when_ns is never negative: the clock starts at zero and no key is
  // pushed before now().
  __extension__ using Order = unsigned __int128;
  static Order order(const Key& k) {
    return Order{static_cast<std::uint64_t>(k.when_ns)} << 64 | k.seq;
  }
  static bool before(const Key& a, const Key& b) { return order(a) < order(b); }
  void heap_push(const Key& key);
  Key heap_pop();
  /// True if a popped key is its event's live key. A cancelled event's key
  /// frees its slot; a re-armed event's key is pushed again at the live
  /// key. Neither fires or counts as processed.
  bool due(const Key& key);
  void fire(const Key& key);
  /// Calls a sink key's sink; counts and records it as fire() does.
  void fire_sink(const Key& key);
  /// Destroys the slot's callable, then frees the slot for reuse.
  void release(std::uint32_t index);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  // Key of the event fired last, for the reserved-key check.
  std::int64_t fired_when_ns_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t fired_seq_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap on (when_ns, seq)
  Slab<Slot> slots_;
  std::vector<std::function<void(std::uint32_t)>> sinks_;
};

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel(slot_, gen_);
}

inline bool EventHandle::rearm(SimTime when) {
  return engine_ != nullptr && engine_->rearm(slot_, gen_, when);
}

}  // namespace dproc::sim
