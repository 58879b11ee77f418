// FIFO on a recycled power-of-two ring.
//
// std::deque frees and reallocates blocks as its front advances, so a queue
// that is filled and drained every simulated minute would allocate every
// minute. RingQueue keeps its storage: once it has grown to the largest
// backlog it has held, push_back and pop_front touch no allocator.

#ifndef SRC_COMMON_RING_QUEUE_H_
#define SRC_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace ampere {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }

  T& front() {
    AMPERE_CHECK(size_ > 0) << "front of an empty RingQueue";
    return slots_[head_];
  }
  const T& back() const {
    AMPERE_CHECK(size_ > 0) << "back of an empty RingQueue";
    return slots_[(head_ + size_ - 1) & (slots_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Drops the front element. Its slot keeps the value until overwritten.
  void pop_front() {
    AMPERE_CHECK(size_ > 0) << "pop_front on an empty RingQueue";
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  static constexpr size_t kInitialSlots = 16;

  // Doubles the ring, moving the elements to the start in FIFO order.
  void Grow() {
    std::vector<T> grown(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // Size is zero or a power of two.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ampere

#endif  // SRC_COMMON_RING_QUEUE_H_
