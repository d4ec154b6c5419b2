// A FIFO queue on a ring buffer that keeps its capacity.
//
// The media park packets here while they propagate (and gateways while
// they charge processing time): the wait is a constant per link or router,
// so the engine events that end the waits fire in push order, and each one
// pops the head. After warm-up the ring never allocates; std::deque would
// still allocate and free a node every few packets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace dash {

template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// The i-th oldest element. Precondition: i < size().
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }

  /// Removes and returns the oldest element. Precondition: !empty().
  T pop() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

 private:
  // Doubles the ring (power-of-two sizes keep the index a mask), unrolling
  // the live elements to the front in FIFO order.
  void grow() {
    std::vector<T> next(std::max<std::size_t>(8, slots_.size() * 2));
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dash
