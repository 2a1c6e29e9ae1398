#include "gauge.hpp"

#include <utility>

namespace macro_e2e {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 22;  // 32 MB
constexpr std::size_t kPending = 16384;
constexpr std::size_t kSlotWords = 8;
constexpr int kEventsPerChunk = 5000;
/// One chunk (~4 ms) per 50 ms of wall time keeps the gauge under a tenth
/// of a run while giving every run well over a hundred samples.
constexpr double kIntervalMs = 50.0;

bool before(const std::uint64_t when_a, const std::uint64_t seq_a,
            const std::uint64_t when_b, const std::uint64_t seq_b) {
  return when_a < when_b || (when_a == when_b && seq_a < seq_b);
}

}  // namespace

HostGauge::HostGauge() {
  const double rss_before = rss_kb();
  table_.resize(kTableWords);
  for (std::uint64_t& word : table_) word = next_random();
  slots_.resize(kPending);
  heap_.reserve(kPending + 1);
  for (std::size_t i = 0; i < kPending; ++i) {
    slots_[i] = std::make_unique<std::uint64_t[]>(kSlotWords);
    // Each event reads four dependent random words of the table, replaces
    // its slot with a fresh allocation and is rescheduled by run_next().
    push(Event{table_[i] % 1000000, 0, [this, i] {
                 std::uint64_t x = state_ + i;
                 for (int k = 0; k < 4; ++k) {
                   x ^= table_[(x >> 7) & (kTableWords - 1)];
                   x *= 0xff51afd7ed558ccdull;
                 }
                 auto slot = std::make_unique<std::uint64_t[]>(kSlotWords);
                 for (std::size_t w = 0; w < kSlotWords; ++w) slot[w] = x + w;
                 slots_[i] = std::move(slot);
                 state_ = x;
               }});
  }
  resident_kb_ = rss_kb() - rss_before;
}

std::uint64_t HostGauge::next_random() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

void HostGauge::push(Event event) {
  event.seq = seq_++;
  heap_.push_back(std::move(event));
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (before(heap_[parent].when, heap_[parent].seq, heap_[i].when,
               heap_[i].seq)) {
      break;
    }
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

void HostGauge::run_next() {
  Event top = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  const std::size_t n = heap_.size();
  for (std::size_t i = 0;;) {
    std::size_t m = 2 * i + 1;
    if (m >= n) break;
    if (m + 1 < n && before(heap_[m + 1].when, heap_[m + 1].seq,
                            heap_[m].when, heap_[m].seq)) {
      ++m;
    }
    if (!before(heap_[m].when, heap_[m].seq, heap_[i].when, heap_[i].seq)) {
      break;
    }
    std::swap(heap_[i], heap_[m]);
    i = m;
  }
  top.fn();
  top.when += 1 + (state_ >> 40) % 1000000;
  push(std::move(top));
}

void HostGauge::tick() {
  if (!samples_ms_.empty() &&
      std::chrono::duration<double, std::milli>(Clock::now() - last_)
              .count() < kIntervalMs) {
    return;
  }
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < kEventsPerChunk; ++k) run_next();
  last_ = Clock::now();
  samples_ms_.push_back(
      std::chrono::duration<double, std::milli>(last_ - t0).count());
}

HostGauge& gauge() {
  static HostGauge instance;
  return instance;
}

}  // namespace macro_e2e
