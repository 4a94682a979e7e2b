// Reference event scheduler: the specification Kernel is tested against.
//
// This is the original binary-heap + std::function scheduler the simulator
// shipped with. It is kept (header-only) for two jobs:
//   * the randomized differential test in tests/sim drives it and the
//     production Kernel with identical event streams and requires identical
//     firing orders, and
//   * bench_kernel_throughput uses it as the baseline the production kernel's
//     speedup is measured against.
// It owns its heap storage directly (std::push_heap/pop_heap over a vector)
// so popping moves the event out of the container normally — no
// const_cast-away-the-constness-of-top() tricks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace hmcc::sim {

class ReferenceKernel {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] Cycle now() const noexcept { return now_; }

  void schedule(Cycle delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  void schedule_at(Cycle when, Callback fn) {
    heap_.push_back(Event{when, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.when;
    ++fired_;
    ev.fn();
    return true;
  }

  Cycle run() {
    while (step()) {
    }
    return now_;
  }

  bool run_until(Cycle limit) {
    while (!heap_.empty() && heap_.front().when <= limit) {
      step();
    }
    if (now_ < limit) now_ = limit;
    return !heap_.empty();
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

 private:
  struct Event {
    Cycle when;
    std::uint64_t seq;
    Callback fn;
  };
  // Max-heap comparator inverted on (when, seq): heap front = earliest event.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace hmcc::sim
