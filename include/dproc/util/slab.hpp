// Chunked slab: an index-addressed pool whose elements never move.
//
// Elements live in fixed-size chunks allocated as the pool grows, so a
// reference to one stays valid while others are acquired and released —
// code holding one may re-enter and grow the pool. Indices are 32-bit and
// released ones are reused last in, first out. Storage only grows, to the
// peak number of elements live at once; after that, acquire and release
// allocate nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace dproc {

template <typename T>
class Slab {
 public:
  [[nodiscard]] T& operator[](std::uint32_t i) {
    return chunks_[i / kChunk][i % kChunk];
  }
  [[nodiscard]] const T& operator[](std::uint32_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

  /// Index of an unused element: the last one released, else a new
  /// default-constructed one. A reused element holds whatever its last
  /// user left in it.
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t i = free_.back();
      free_.pop_back();
      return i;
    }
    if (size_ % kChunk == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
      // Room to release every element there is, so release never grows it.
      free_.reserve(chunks_.size() * kChunk);
    }
    return size_++;
  }

  void release(std::uint32_t i) { free_.push_back(i); }

  /// Elements created so far, live or released; indices run below this.
  [[nodiscard]] std::uint32_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kChunk = 256;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
};

}  // namespace dproc
