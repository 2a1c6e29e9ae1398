// Fixed-capacity ring buffer: the one bounded-log type.
//
// Backs the monitoring-sample history (MAGNeT-style circular record
// buffers), the telemetry span and hop logs, the flight recorder and the
// health engine's metric histories. Storage is allocated when first needed
// (reserve(), or the first push()), so a ring whose feature stays off costs
// no memory; once allocated, push() never allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dproc {

template <typename T>
class RingBuffer {
 public:
  /// An unsized ring: capacity 0, holds nothing. Assign a sized ring over
  /// it before pushing.
  RingBuffer() = default;
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument{"RingBuffer capacity must be > 0"};
  }

  /// Allocates storage for capacity() items, so later pushes never
  /// allocate. Idempotent.
  void reserve() {
    if (items_.empty()) items_.resize(capacity_);
  }

  /// Appends an item, overwriting the oldest when full (dropped() counts
  /// the overwrites). Requires a sized ring.
  void push(T item) {
    reserve();
    items_[wrap(head_ + size_)] = std::move(item);
    if (size_ == capacity_) {
      head_ = wrap(head_ + 1);
      ++dropped_;
    } else {
      ++size_;
    }
  }

  /// Element i counted from the oldest retained item (0 == oldest).
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range{"RingBuffer::at"};
    return items_[wrap(head_ + i)];
  }

  [[nodiscard]] const T& front() const { return at(0); }
  [[nodiscard]] const T& back() const { return at(size_ - 1); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }
  /// Items overwritten since construction or the last clear().
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Forgets every item and the overwrite count; keeps the storage.
  void clear() { head_ = 0; size_ = 0; dropped_ = 0; }

  /// Visits items oldest-to-newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(at(i));
  }

 private:
  /// Maps a logical slot in [0, 2 * capacity) onto the storage.
  [[nodiscard]] std::size_t wrap(std::size_t slot) const {
    return slot >= capacity_ ? slot - capacity_ : slot;
  }

  std::vector<T> items_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace dproc
