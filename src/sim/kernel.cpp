#include "sim/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hmcc {

void Kernel::schedule_at(Cycle when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  ++next_seq_;
  if (when - now_ < ring_span_) {
    if (when > now_ && when < scan_hint_) scan_hint_ = when;
    bucket(when).push_back(std::move(fn));
    ++ring_count_;
  } else {
    overflow_.push_back(OverflowEvent{when, next_seq_, std::move(fn)});
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
  }
}

Kernel::Next Kernel::find_next() {
  Next ring_next;
  if (ring_count_ > 0) {
    if (pos_ < bucket(now_).size()) {
      ring_next = Next{Source::kRing, now_};
    } else {
      Cycle c = std::max(scan_hint_, now_ + 1);
      const Cycle end = now_ + ring_span_;
      while (c < end && bucket(c).empty()) ++c;
      scan_hint_ = c;
      assert(c < end && "ring_count_ > 0 but no bucket holds events");
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
  std::vector<Callback>& cur = bucket(now_);
  assert(pos_ == cur.size() && "advancing past unfired events");
  cur.clear();  // keeps capacity: future cycles mapping here reuse it
  pos_ = 0;
  now_ = to;
  scan_hint_ = std::max(scan_hint_, to + 1);
}

void Kernel::fire(const Next& n) {
  assert(n.src != Source::kNone);
  if (n.when != now_) advance_to(n.when);
  // Move the callback out before invoking: the callback may schedule more
  // events into the very container it is stored in (same-cycle appends can
  // reallocate the bucket; overflow pushes re-heapify).
  Callback fn;
  if (n.src == Source::kOverflow) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    fn = std::move(overflow_.back().fn);
    overflow_.pop_back();
  } else {
    fn = std::move(bucket(now_)[pos_]);
    ++pos_;
    --ring_count_;
  }
  ++fired_;
  fn();
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
