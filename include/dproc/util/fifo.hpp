// Growable FIFO queue over a power-of-two ring.
//
// push_back() appends, pop_front() drops the oldest item and operator[]
// counts from the oldest. Storage is allocated on the first push and
// doubles when full, so a queue that has reached its peak length allocates
// nothing more. A popped cell is reset at once, so whatever the item owned
// is freed then and not when the cell is reused. Unlike RingBuffer, a
// bounded log that overwrites its oldest item, a Fifo never drops one.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dproc {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Item i counted from the oldest; i must be below size().
  [[nodiscard]] T& operator[](std::size_t i) {
    return cells_[(head_ + i) & (cells_.size() - 1)];
  }
  [[nodiscard]] T& front() { return cells_[head_]; }

  void push_back(T item) {
    if (size_ == cells_.size()) grow();
    (*this)[size_] = std::move(item);
    ++size_;
  }

  /// Drops the oldest item; the queue must not be empty.
  void pop_front() {
    cells_[head_] = T{};
    head_ = (head_ + 1) & (cells_.size() - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kInitialCells = 4;

  void grow() {
    std::vector<T> cells(cells_.empty() ? kInitialCells : 2 * cells_.size());
    for (std::size_t i = 0; i < size_; ++i) cells[i] = std::move((*this)[i]);
    cells_.swap(cells);
    head_ = 0;
  }

  std::vector<T> cells_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dproc
