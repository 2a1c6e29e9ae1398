#include "dproc/sim/engine.hpp"

#include <algorithm>

namespace dproc::sim {

Engine::~Engine() {
  // Keys first, so nothing can fire any more. Then each callable is
  // destroyed with the slab intact: a destructor may cancel() other events
  // (a connection's RTO handle) or drop the last owner of one that does.
  heap_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].ops != nullptr) release(i);
  }
}

// Both sifts move a hole instead of swapping, and compare (when, seq), which
// is unique per key — so the pop order does not depend on the heap's shape.
void Engine::heap_push(const Key& key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Engine::Key Engine::heap_pop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void Engine::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  const Ops* ops = slot.ops;
  slot.ops = nullptr;
  ++slot.gen;
  // Destroy before freeing: the destructor may schedule, and must not be
  // handed the slot it is still running in.
  ops->destroy(slot.storage);
  slots_.release(index);
}

bool Engine::due(const Key& key) {
  Slot& slot = slots_[key.slot];
  if (slot.gen != key.gen) {
    release(key.slot);
    return false;
  }
  if (slot.seq != key.seq) {
    heap_push(Key{slot.when_ns, slot.seq, key.slot, key.gen});
    return false;
  }
  return true;
}

void Engine::fire(const Key& key) {
  ++processed_;
  fired_when_ns_ = key.when_ns;
  fired_seq_ = key.seq;
  // Slots never move and this one stays taken until released below, so the
  // reference survives whatever the callback schedules or cancels.
  Slot& slot = slots_[key.slot];
  // A one-shot is no longer pending once it starts: its handles can
  // neither cancel nor re-arm it from here on, not even from its own
  // callback (the slot is released when the callback returns).
  if (slot.period_ns == 0) ++slot.gen;
  slot.ops->invoke(slot.storage);
  if (slot.period_ns > 0 && slot.gen == key.gen) {
    slot.when_ns = now_.ns() + slot.period_ns;
    slot.seq = next_seq_++;
    heap_push(Key{slot.when_ns, slot.seq, key.slot, key.gen});
  } else {
    release(key.slot);
  }
}

void Engine::fire_sink(const Key& key) {
  ++processed_;
  fired_when_ns_ = key.when_ns;
  fired_seq_ = key.seq;
  sinks_[key.slot ^ kSinkBit](key.gen);
}

bool Engine::step() {
  while (!heap_.empty()) {
    const Key key = heap_pop();
    const bool sink = (key.slot & kSinkBit) != 0;
    if (!sink && !due(key)) continue;
    now_ = SimTime{key.when_ns};
    if (sink) {
      fire_sink(key);
    } else {
      fire(key);
    }
    return true;
  }
  return false;
}

void Engine::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when_ns <= deadline.ns()) {
    const Key key = heap_pop();
    now_ = SimTime{key.when_ns};
    if ((key.slot & kSinkBit) != 0) {
      fire_sink(key);
    } else if (due(key)) {
      fire(key);
    }
  }
  if (now_ < deadline) now_ = deadline;
}

void Engine::run() {
  while (step()) {
  }
}

}  // namespace dproc::sim
