// Fixed-capacity FIFO ring buffer.
//
// Used for the Coalesced Request Queue (CRQ), which the paper sizes
// statically in hardware (one slot per dynamic MSHR entry).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace hmcc {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity) {
    assert(capacity > 0);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == slots_.size(); }

  /// Push to the back; returns false (and drops nothing) when full.
  bool push(T value) {
    if (full()) return false;
    slots_[wrap(head_ + size_)] = std::move(value);
    ++size_;
    return true;
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return slots_[head_];
  }

  /// Element @p i positions behind the front (0 == front).
  [[nodiscard]] T& at(std::size_t i) {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  T pop() {
    assert(!empty());
    T v = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  /// Remove the element at logical index @p i (0 == front), preserving FIFO
  /// order of the rest. Needed when a CRQ entry merges into an MSHR while
  /// waiting mid-queue (paper §4.2).
  void erase_at(std::size_t i) {
    assert(i < size_);
    for (std::size_t k = i; k + 1 < size_; ++k) {
      at(k) = std::move(at(k + 1));
    }
    --size_;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Slot of position @p i < 2 * capacity(): one compare and subtract, no
  /// division.
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hmcc
