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
// when - now() < ring_size go into a ring of per-cycle FIFO lists:
// scheduling is an O(1) append and a list replays in insertion order, which
// IS sequence order for a list that only ever received in-window appends.
// Rare far-future events (when >= now() + ring_size) go to a small overflow
// min-heap ordered by (when, seq).  No migration is needed to keep the two
// structures ordered relative to each other: an overflow event for cycle c
// was by definition scheduled while c was outside the ring window
// (sched_now <= c - ring_size), while any ring event for the same c was
// scheduled strictly later (sched_now > c - ring_size), so at cycle c the
// overflow events always carry smaller sequence numbers and fire first.
//
// Storage: every pending event is one 64-byte node, a list link plus an
// InlineCallback (common/inline_callback.hpp), in fixed-size chunks that
// never move.  A cycle's list is threaded through its nodes: the ring holds
// only the list's tail, whose link closes the circle back to the head.  The
// overflow heap holds node pointers.  schedule() constructs the callable in
// a node taken from a LIFO free list, and firing runs it in place, destroys
// it and pushes the node back, so the next schedule reuses the line that
// just fired.  No callable is ever moved, and a kernel whose chunks have
// warmed up schedules without allocating.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_callback.hpp"
#include "common/types.hpp"

namespace hmcc {

class Kernel {
 public:
  /// Default ring coverage: events up to this many cycles ahead take the
  /// O(1) list path. Generous for the paper platform (its largest routine
  /// delay — DRAM row cycles + link serialization — is a few hundred
  /// cycles); configs with slower timing should size the ring explicitly
  /// via ring_size_for().
  static constexpr std::size_t kRingSize = 4096;

  /// Bounds for ring_size_for(): below kMinRingSize the per-lap bookkeeping
  /// outweighs the ring win; above kMaxRingSize the (mostly empty) ring
  /// costs more memory than letting rare far events take the overflow heap.
  static constexpr std::size_t kMinRingSize = 256;
  static constexpr std::size_t kMaxRingSize = std::size_t{1} << 16;

  /// @p ring_size must be a power of two. Events scheduled further than
  /// ring_size cycles ahead stay correct — they route through the overflow
  /// min-heap — so the size tunes constant factors, never results.
  explicit Kernel(std::size_t ring_size = kRingSize)
      : ring_(ring_size, nullptr),
        ring_span_(static_cast<Cycle>(ring_size)),
        ring_mask_(static_cast<Cycle>(ring_size) - 1) {
    assert(ring_size >= 2 && (ring_size & (ring_size - 1)) == 0 &&
           "ring size must be a power of two");
  }

  /// Destroying the kernel destroys every callback still pending: a free
  /// node holds an empty callback, so the chunks' destructors release
  /// exactly the pending captures.
  ~Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Smallest power-of-two ring (clamped to [kMinRingSize, kMaxRingSize])
  /// that keeps every delay <= @p worst_routine_delay on the O(1) list
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

  /// Per-cycle lists in the ring (power of two).
  [[nodiscard]] std::size_t ring_size() const noexcept { return ring_.size(); }

  /// Current simulation time (CPU cycles).
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Schedule @p fn to run @p delay cycles from now (0 = later this cycle).
  template <typename F>
  void schedule(Cycle delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule @p fn at absolute cycle @p when (must be >= now()). The
  /// callable is constructed directly in its event node.
  template <typename F>
  void schedule_at(Cycle when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    Node* node = free_ != nullptr ? free_ : grow();
    node->fn.emplace(std::forward<F>(fn));
    free_ = node->next;
    enqueue(node, when);
  }

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
  /// One event: the link that threads it through its cycle's list (or the
  /// free list) and the callable, in one cache line.
  struct alignas(64) Node {
    Node* next = nullptr;
    InlineCallback fn;
  };
  static_assert(sizeof(Node) == 64);
  /// Nodes per chunk (16 KiB). Chunks are only added, never moved or freed
  /// before the kernel, so a callback keeps running in place while it
  /// schedules enough events to add a chunk.
  static constexpr std::size_t kChunkNodes = 256;

  struct OverflowEvent {
    Cycle when;
    std::uint64_t seq;
    Node* node;
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

  /// Tail of the list of the unique in-window cycle congruent to @p cycle
  /// (nullptr when that list is empty).
  [[nodiscard]] Node*& tail_of(Cycle cycle) noexcept {
    return ring_[static_cast<std::size_t>(cycle & ring_mask_)];
  }

  /// Add a chunk of free nodes; returns the new free-list head.
  Node* grow();

  /// Append @p node to the list of cycle @p when, or push it on the
  /// overflow heap when @p when is past the ring window.
  void enqueue(Node* node, Cycle when) {
    ++next_seq_;
    if (when - now_ < ring_span_) {
      if (when > now_ && when < scan_hint_) scan_hint_ = when;
      Node*& tail = tail_of(when);
      if (tail == nullptr) {
        node->next = node;
      } else {
        node->next = tail->next;
        tail->next = node;
      }
      tail = node;
      ++ring_count_;
    } else {
      push_overflow(node, when);
    }
  }
  void push_overflow(Node* node, Cycle when);

  /// Locate the earliest pending event without firing it. Advances
  /// scan_hint_ past empty lists so repeated calls stay cheap.
  Next find_next();

  /// Move simulation time forward to @p to (> now_). The list at the old
  /// now_ must be empty.
  void advance_to(Cycle to);

  /// Fire the event described by @p n (must not be kNone): unlink its node,
  /// run the callable in place, destroy it and free the node.
  void fire(const Next& n);

  /// Per-cycle list tails; ring_[c & ring_mask_] is the list of the unique
  /// in-window cycle congruent to c, and tail->next is its head.
  std::vector<Node*> ring_;
  Cycle ring_span_;  ///< ring_.size() as a Cycle, for window arithmetic
  Cycle ring_mask_;  ///< ring_span_ - 1
  std::vector<OverflowEvent> overflow_;
  /// Node storage; every node is either pending or on the free list.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_ = nullptr;  ///< LIFO free list threaded through Node::next
  Cycle now_ = 0;
  /// Unfired events currently stored in the ring.
  std::size_t ring_count_ = 0;
  /// No ring events exist at cycles in (now_, scan_hint_); lets find_next
  /// resume its empty-list scan instead of restarting at now_ + 1.
  Cycle scan_hint_ = 1;
  /// Insertion counter; only overflow events need it materialized (ring
  /// lists encode sequence order positionally), but it advances on every
  /// schedule so the (cycle, seq) ordering contract is easy to reason about.
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace hmcc
