// Discrete-event simulation kernel.
//
// The memory system is simulated event-driven rather than cycle-ticked so
// multi-million-request traces run in seconds on one host core.  Events are
// ordered by (cycle, insertion sequence): two events scheduled for the same
// cycle fire in scheduling order, which gives deterministic component
// interleaving without a global tick loop.
//
// Implementation: a calendar queue tuned for the simulator's event mix.
// Nearly every event lands within a few hundred cycles of now() (issue
// intervals, sort-network latencies, DRAM timings), so events with
// when - now() < kRingSize go into a ring of per-cycle buckets: scheduling
// is an O(1) append and a bucket replays in insertion order, which IS
// sequence order for a bucket that only ever received in-window appends.
// Rare far-future events (when >= now() + kRingSize) go to a small overflow
// min-heap ordered by (when, seq).  No migration is needed to keep the two
// structures ordered relative to each other: an overflow event for cycle c
// was by definition scheduled while c was outside the ring window
// (sched_now <= c - kRingSize), while any ring event for the same c was
// scheduled strictly later (sched_now > c - kRingSize), so at cycle c the
// overflow events always carry smaller sequence numbers and fire first.
// Callbacks are stored as InlineCallback (common/inline_callback.hpp):
// captures up to 48 bytes live inside the event slot, so the
// schedule -> fire path performs no heap allocation once bucket capacity
// has warmed up.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/inline_callback.hpp"
#include "common/types.hpp"

namespace hmcc {

class Kernel {
 public:
  using Callback = InlineCallback;

  /// Default ring coverage: events up to this many cycles ahead take the
  /// O(1) bucket path. Generous for the paper platform (its largest routine
  /// delay — DRAM row cycles + link serialization — is a few hundred
  /// cycles); configs with slower timing should size the ring explicitly
  /// via ring_size_for().
  static constexpr std::size_t kRingSize = 4096;

  /// Bounds for ring_size_for(): below kMinRingSize the per-lap bookkeeping
  /// outweighs the bucket win; above kMaxRingSize the (mostly empty) bucket
  /// vectors cost more memory than letting rare far events take the
  /// overflow heap.
  static constexpr std::size_t kMinRingSize = 256;
  static constexpr std::size_t kMaxRingSize = std::size_t{1} << 16;

  /// @p ring_size must be a power of two. Events scheduled further than
  /// ring_size cycles ahead stay correct — they route through the overflow
  /// min-heap — so the size tunes constant factors, never results.
  explicit Kernel(std::size_t ring_size = kRingSize)
      : ring_(ring_size),
        ring_span_(static_cast<Cycle>(ring_size)),
        ring_mask_(static_cast<Cycle>(ring_size) - 1) {
    assert(ring_size >= 2 && (ring_size & (ring_size - 1)) == 0 &&
           "ring size must be a power of two");
  }

  /// Smallest power-of-two ring (clamped to [kMinRingSize, kMaxRingSize])
  /// that keeps every delay <= @p worst_routine_delay on the O(1) bucket
  /// path. Systems pass their config's worst-case unloaded round trip here
  /// instead of guessing at compile time.
  [[nodiscard]] static constexpr std::size_t ring_size_for(
      Cycle worst_routine_delay) noexcept {
    std::size_t size = kMinRingSize;
    while (size < kMaxRingSize &&
           static_cast<Cycle>(size) <= worst_routine_delay) {
      size <<= 1;
    }
    return size;
  }

  /// Per-cycle buckets in the ring (power of two).
  [[nodiscard]] std::size_t ring_size() const noexcept { return ring_.size(); }

  /// Current simulation time (CPU cycles).
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Schedule @p fn to run @p delay cycles from now (0 = later this cycle).
  void schedule(Cycle delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule @p fn at absolute cycle @p when (must be >= now()).
  void schedule_at(Cycle when, Callback fn);

  /// Run until the event queue drains. Returns the final cycle.
  Cycle run();

  /// Run events with time <= @p limit; pending later events survive.
  /// Advances now() to @p limit even when no event fires that late.
  /// Returns true if events remain.
  bool run_until(Cycle limit);

  /// Fire exactly one event, if any. Returns false when the queue is empty.
  bool step();

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return ring_count_ + overflow_.size();
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

 private:
  struct OverflowEvent {
    Cycle when;
    std::uint64_t seq;
    Callback fn;
  };
  /// Inverted comparator so std::push_heap/pop_heap maintain a min-heap on
  /// (when, seq) with the earliest event at front().
  struct OverflowLater {
    bool operator()(const OverflowEvent& a,
                    const OverflowEvent& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  enum class Source : std::uint8_t { kNone, kRing, kOverflow };
  struct Next {
    Source src = Source::kNone;
    Cycle when = 0;
  };

  [[nodiscard]] std::vector<Callback>& bucket(Cycle cycle) noexcept {
    return ring_[static_cast<std::size_t>(cycle & ring_mask_)];
  }

  /// Locate the earliest pending event without firing it. Advances
  /// scan_hint_ past empty buckets so repeated calls stay cheap.
  Next find_next();

  /// Move simulation time forward to @p to (> now_). The bucket at the old
  /// now_ must be fully consumed.
  void advance_to(Cycle to);

  /// Fire the event described by @p n (must not be kNone).
  void fire(const Next& n);

  /// Per-cycle buckets; ring_[c & ring_mask_] holds the events of the unique
  /// in-window cycle congruent to c. Vectors keep their capacity across
  /// clear(), so a warmed-up kernel schedules without allocating.
  std::vector<std::vector<Callback>> ring_;
  Cycle ring_span_;  ///< ring_.size() as a Cycle, for window arithmetic
  Cycle ring_mask_;  ///< ring_span_ - 1
  std::vector<OverflowEvent> overflow_;
  Cycle now_ = 0;
  /// Consume position inside the bucket at now_ (events before pos_ fired).
  std::size_t pos_ = 0;
  /// Unfired events currently stored in the ring.
  std::size_t ring_count_ = 0;
  /// No ring events exist at cycles in (now_, scan_hint_); lets find_next
  /// resume its empty-bucket scan instead of restarting at now_ + 1.
  Cycle scan_hint_ = 1;
  /// Insertion counter; only overflow events need it materialized (ring
  /// buckets encode sequence order positionally), but it advances on every
  /// schedule so the (cycle, seq) ordering contract is easy to reason about.
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace hmcc
