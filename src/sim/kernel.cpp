#include "sim/kernel.hpp"

#include <algorithm>
#include <cassert>

namespace hmcc {

Kernel::Node* Kernel::grow() {
  assert(free_ == nullptr);
  chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
  Node* chunk = chunks_.back().get();
  // Thread the chunk so the free list hands out its nodes in address order.
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  return free_;
}

void Kernel::push_overflow(Node* node, Cycle when) {
  overflow_.push_back(OverflowEvent{when, next_seq_, node});
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
}

Kernel::Next Kernel::find_next() {
  Next ring_next;
  if (ring_count_ > 0) {
    if (tail_of(now_) != nullptr) {
      ring_next = Next{Source::kRing, now_};
    } else {
      Cycle c = std::max(scan_hint_, now_ + 1);
      const Cycle end = now_ + ring_span_;
      while (c < end && tail_of(c) == nullptr) ++c;
      scan_hint_ = c;
      assert(c < end && "ring_count_ > 0 but no list holds events");
      ring_next = Next{Source::kRing, c};
    }
  }
  if (!overflow_.empty()) {
    const Cycle ow = overflow_.front().when;
    // Ties go to the overflow event: it was scheduled while its cycle was
    // still outside the ring window, hence before (smaller seq than) every
    // ring event of the same cycle.
    if (ring_next.src == Source::kNone || ow <= ring_next.when) {
      return Next{Source::kOverflow, ow};
    }
  }
  return ring_next;
}

void Kernel::advance_to(Cycle to) {
  assert(to > now_);
  assert(tail_of(now_) == nullptr && "advancing past unfired events");
  now_ = to;
  scan_hint_ = std::max(scan_hint_, to + 1);
}

void Kernel::fire(const Next& n) {
  assert(n.src != Source::kNone);
  if (n.when != now_) advance_to(n.when);
  Node* node = nullptr;
  if (n.src == Source::kOverflow) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    node = overflow_.back().node;
    overflow_.pop_back();
  } else {
    Node*& tail = tail_of(now_);
    node = tail->next;  // the head: oldest event of this cycle
    if (node == tail) {
      tail = nullptr;
    } else {
      tail->next = node->next;
    }
    --ring_count_;
  }
  // The node is unlinked before the call, so a same-cycle schedule() from
  // inside the callback appends behind the events already queued, and it
  // is freed only after the call returns, so nothing reuses it meanwhile.
  ++fired_;
  node->fn();
  node->fn.reset();
  node->next = free_;
  free_ = node;
}

bool Kernel::step() {
  const Next n = find_next();
  if (n.src == Source::kNone) return false;
  fire(n);
  return true;
}

Cycle Kernel::run() {
  for (;;) {
    const Next n = find_next();
    if (n.src == Source::kNone) return now_;
    fire(n);
  }
}

bool Kernel::run_until(Cycle limit) {
  for (;;) {
    const Next n = find_next();
    if (n.src == Source::kNone) {
      if (now_ < limit) advance_to(limit);
      return false;
    }
    if (n.when > limit) {
      if (now_ < limit) advance_to(limit);
      return true;
    }
    fire(n);
  }
}

}  // namespace hmcc
