#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/reference_kernel.hpp"

namespace hmcc {
namespace {

TEST(Kernel, RunsEventsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(30, [&] { order.push_back(3); });
  k.schedule_at(10, [&] { order.push_back(1); });
  k.schedule_at(20, [&] { order.push_back(2); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 30u);
}

TEST(Kernel, SameCycleFifoOrder) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    k.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, EventsScheduleMoreEvents) {
  Kernel k;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) k.schedule(5, chain);
  };
  k.schedule_at(0, chain);
  k.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(k.now(), 45u);
}

TEST(Kernel, RunUntilLeavesLaterEvents) {
  Kernel k;
  int fired = 0;
  k.schedule_at(10, [&] { ++fired; });
  k.schedule_at(100, [&] { ++fired; });
  EXPECT_TRUE(k.run_until(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 50u);
  EXPECT_FALSE(k.run_until(200));
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, ZeroDelayRunsLaterSameCycle) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(5, [&] {
    order.push_back(1);
    k.schedule(0, [&] { order.push_back(2); });
  });
  k.schedule_at(5, [&] { order.push_back(3); });
  k.run();
  // The zero-delay event was scheduled after event "3" existed, so it fires
  // after it within the same cycle.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(k.now(), 5u);
}

TEST(Kernel, StepAndCounters) {
  Kernel k;
  k.schedule_at(1, [] {});
  k.schedule_at(2, [] {});
  EXPECT_EQ(k.pending(), 2u);
  EXPECT_TRUE(k.step());
  EXPECT_EQ(k.pending(), 1u);
  EXPECT_TRUE(k.step());
  EXPECT_FALSE(k.step());
  EXPECT_EQ(k.events_fired(), 2u);
}

TEST(Kernel, RunUntilFiresEventExactlyAtLimit) {
  Kernel k;
  int fired = 0;
  k.schedule_at(50, [&] { ++fired; });
  k.schedule_at(51, [&] { ++fired; });
  EXPECT_TRUE(k.run_until(50));  // when == limit fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 50u);
  EXPECT_FALSE(k.run_until(51));
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, RunUntilAdvancesTimeOnEmptyQueue) {
  Kernel k;
  EXPECT_FALSE(k.run_until(1000));
  EXPECT_EQ(k.now(), 1000u);
  // Past limits leave time untouched.
  EXPECT_FALSE(k.run_until(10));
  EXPECT_EQ(k.now(), 1000u);
  int fired = 0;
  k.schedule(1, [&] { ++fired; });
  k.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 1001u);
}

TEST(Kernel, FarFutureEventsBeyondRingCoverage) {
  // Deltas far past kRingSize route through the overflow heap and still
  // fire in (cycle, seq) order.
  Kernel k;
  std::vector<int> order;
  const Cycle far = 10 * Kernel::kRingSize;
  k.schedule_at(far, [&] { order.push_back(1); });
  k.schedule_at(far + 3 * Kernel::kRingSize, [&] { order.push_back(2); });
  k.schedule_at(5, [&] { order.push_back(0); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(k.now(), far + 3 * Kernel::kRingSize);
}

TEST(Kernel, OverflowAndRingEventsAtTheSameCycleKeepScheduleOrder) {
  // An event scheduled while its cycle was outside the ring window must
  // fire before events scheduled for the same cycle from nearby (it was
  // scheduled first).
  Kernel k;
  std::vector<int> order;
  const Cycle target = Kernel::kRingSize + 100;
  k.schedule_at(target, [&] { order.push_back(1); });  // overflow path
  k.schedule_at(target - 50, [&, target] {
    // Now target is in-window: this lands in the ring list.
    k.schedule_at(target, [&] { order.push_back(2); });
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, BucketWrapReusesRingSlots) {
  // March time across several full ring laps; every ring slot is reused
  // for multiple distinct cycles congruent mod kRingSize.
  Kernel k;
  std::uint64_t fired = 0;
  std::function<void()> hop = [&] {
    ++fired;
    if (fired < 64) k.schedule(Kernel::kRingSize - 1, hop);
  };
  k.schedule_at(0, hop);
  k.run();
  EXPECT_EQ(fired, 64u);
  EXPECT_EQ(k.now(), 63u * (Kernel::kRingSize - 1));
}

TEST(Kernel, LargeCapturesFallBackToHeapAndStillRun) {
  Kernel k;
  std::array<std::uint64_t, 16> blob{};  // 128 B capture: > kInlineBytes
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = i + 1;
  std::uint64_t sum = 0;
  static_assert(!InlineCallback::fits_inline<decltype([blob, &sum] {})>());
  k.schedule_at(3, [blob, &sum] {
    for (std::uint64_t v : blob) sum += v;
  });
  k.run();
  EXPECT_EQ(sum, 136u);
}

TEST(Kernel, SameCycleFifoAcrossManyEvents) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(40, [&] {
    for (int i = 0; i < 100; ++i) {
      k.schedule(0, [&order, i] { order.push_back(i); });
    }
  });
  k.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// Node storage: a callback runs in its node, nodes never move, and the
// kernel owns every pending capture.

TEST(Kernel, CallbackKeepsRunningInPlaceWhileItsSchedulesAddChunks) {
  // One callback schedules enough events to add several node chunks, then
  // reads its own captures: they must still be intact where it runs.
  Kernel k;
  std::vector<int> order;
  std::array<std::uint64_t, 4> sentinel{11, 22, 33, 44};
  std::uint64_t seen = 0;
  k.schedule_at(3, [&k, &order, &seen, sentinel] {
    for (int i = 0; i < 2000; ++i) {
      k.schedule(static_cast<Cycle>(i % 7),
                 [&order, i] { order.push_back(i); });
    }
    for (std::uint64_t v : sentinel) seen += v;
  });
  k.run();
  EXPECT_EQ(seen, 110u);
  ASSERT_EQ(order.size(), 2000u);
  // Cycle-major, then scheduling order within each cycle.
  std::vector<int> want;
  for (int d = 0; d < 7; ++d) {
    for (int i = d; i < 2000; i += 7) want.push_back(i);
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(k.events_fired(), 2001u);
}

TEST(Kernel, SameCycleScheduleFromACallbackQueuesBehindThatCycle) {
  // Events already queued for a cycle fire before any schedule(0, ...) made
  // while that cycle runs, including one made by the cycle's last event and
  // one made by a zero-delay event itself.
  Kernel k;
  std::vector<char> order;
  k.schedule_at(9, [&] {
    order.push_back('a');
    k.schedule(0, [&] {
      order.push_back('d');
      k.schedule(0, [&] { order.push_back('f'); });
    });
  });
  k.schedule_at(9, [&] { order.push_back('b'); });
  k.schedule_at(9, [&] {
    order.push_back('c');
    k.schedule(0, [&] { order.push_back('e'); });
  });
  k.schedule_at(10, [&] { order.push_back('g'); });
  k.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd', 'e', 'f', 'g'}));
}

// Counts live copies of itself through a shared counter.
struct Counted {
  int* live;
  explicit Counted(int* l) : live(l) { ++*live; }
  Counted(const Counted& o) : live(o.live) { ++*live; }
  Counted(Counted&& o) noexcept : live(o.live) { ++*live; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live; }
};

TEST(Kernel, DestroyingAKernelReleasesPendingCaptures) {
  int live = 0;
  {
    Kernel k(64);
    const Counted c(&live);
    std::array<std::uint64_t, 16> blob{};  // too big to store inline
    for (int i = 0; i < 300; ++i) {
      k.schedule(static_cast<Cycle>(i % 40), [c] {});
    }
    k.schedule(1000, [c] {});  // overflow heap
    k.schedule(5, [c, blob] { (void)blob; });
    EXPECT_EQ(live, 1 + 302);
    EXPECT_TRUE(k.run_until(20));
    // Cycles 0..19 hold 8 ring events each, cycle 20 holds 7, plus the
    // heap-stored one at cycle 5.
    EXPECT_EQ(k.events_fired(), 20u * 8 + 7 + 1);
    EXPECT_EQ(live, 1 + 302 - static_cast<int>(k.events_fired()));
  }
  EXPECT_EQ(live, 0);
}

// ---------------------------------------------------------------------------
// Ring sizing: the ring is a constructor parameter now (the System
// sizes it from the platform's worst-case event delay); any power-of-two
// ring must produce the same schedule, only the fast-path coverage changes.

TEST(Kernel, CustomRingSizeIsObservable) {
  EXPECT_EQ(Kernel().ring_size(), Kernel::kRingSize);
  EXPECT_EQ(Kernel(64).ring_size(), 64u);
  EXPECT_EQ(Kernel(1 << 16).ring_size(), std::size_t{1} << 16);
}

TEST(Kernel, RingSizeForCoversTheDelayAndClamps) {
  // Smallest power of two STRICTLY greater than the worst routine delay
  // (a delay equal to the ring span would wrap onto the current list),
  // clamped to [kMinRingSize, kMaxRingSize].
  EXPECT_EQ(Kernel::ring_size_for(0), Kernel::kMinRingSize);
  EXPECT_EQ(Kernel::ring_size_for(255), 256u);
  EXPECT_EQ(Kernel::ring_size_for(256), 512u);
  EXPECT_EQ(Kernel::ring_size_for(596), 1024u);
  EXPECT_EQ(Kernel::ring_size_for(100000), Kernel::kMaxRingSize);
  for (Cycle d : {Cycle{1}, Cycle{300}, Cycle{4095}, Cycle{65535}}) {
    const std::size_t size = Kernel::ring_size_for(d);
    EXPECT_EQ(size & (size - 1), 0u) << d;
    EXPECT_GE(size, Kernel::kMinRingSize);
    EXPECT_LE(size, Kernel::kMaxRingSize);
    if (size < Kernel::kMaxRingSize) EXPECT_GT(static_cast<Cycle>(size), d);
  }
}

TEST(Kernel, TinyRingMatchesDefaultRingSchedule) {
  // Same event tree on a 64-slot ring (lots of overflow traffic) and the
  // default ring: identical firing order is required.
  auto run_with = [](std::size_t ring_size) {
    Kernel k(ring_size);
    std::vector<std::pair<int, Cycle>> log;
    std::function<void(int)> fire = [&](int id) {
      log.emplace_back(id, k.now());
      if (id < 200) {
        k.schedule(static_cast<Cycle>((id * 37) % 500), [&fire, id] {
          fire(id + 2);
        });
      }
    };
    k.schedule_at(0, [&fire] { fire(0); });
    k.schedule_at(1, [&fire] { fire(1); });
    k.run();
    return log;
  };
  EXPECT_EQ(run_with(64), run_with(Kernel::kRingSize));
}

// ---------------------------------------------------------------------------
// Randomized differential test: the production Kernel must fire the exact
// same (event id, cycle) sequence as the reference heap scheduler for
// arbitrary self-expanding event trees mixing ring and overflow delays. A
// 64-slot ring sends most of the 0..300-cycle delays through the overflow
// heap, so overflow and ring events keep meeting at the same cycle — where
// the list's append order must defer to the heap's earlier-scheduled
// events.

template <typename K>
std::vector<std::pair<std::uint64_t, Cycle>> run_scenario(K& k,
                                                          std::uint64_t seed,
                                                          bool use_run_until) {
  std::vector<std::pair<std::uint64_t, Cycle>> log;
  std::uint64_t next_id = 0;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    log.emplace_back(id, k.now());
    if (log.size() >= 4000) return;  // identical cutoff for both kernels
    Xoshiro256 rng(seed ^ (id * 0x9E3779B97F4A7C15ULL));
    const std::uint64_t kids = rng.below(3);
    for (std::uint64_t c = 0; c < kids; ++c) {
      // Mostly near-future (ring) with a tail of overflow-heap delays.
      const Cycle delay = rng.chance(0.05)
                              ? rng.below(4 * Kernel::kRingSize)
                              : rng.below(300);
      const std::uint64_t kid = next_id++;
      k.schedule(delay, [&fire, kid] { fire(kid); });
    }
  };
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t id = next_id++;
    k.schedule_at(Xoshiro256(seed + static_cast<std::uint64_t>(i)).below(512),
                  [&fire, id] { fire(id); });
  }
  if (use_run_until) {
    while (k.run_until(k.now() + 97)) {
    }
  } else {
    k.run();
  }
  return log;
}

TEST(Kernel, DifferentialAgainstReferenceHeapScheduler) {
  for (std::uint64_t seed : {1ULL, 42ULL, 1234567ULL}) {
    sim::ReferenceKernel ref;
    const auto expected = run_scenario(ref, seed, false);
    ASSERT_GT(expected.size(), 100u);
    for (std::size_t ring : {Kernel::kRingSize, std::size_t{64}}) {
      Kernel k(ring);
      EXPECT_EQ(run_scenario(k, seed, false), expected)
          << "seed " << seed << " ring " << ring;
    }
  }
}

TEST(Kernel, DifferentialUnderRunUntilStepping) {
  for (std::uint64_t seed : {7ULL, 99ULL}) {
    sim::ReferenceKernel ref;
    const auto expected = run_scenario(ref, seed, true);
    ASSERT_GT(expected.size(), 100u);
    for (std::size_t ring : {Kernel::kRingSize, std::size_t{64}}) {
      Kernel k(ring);
      EXPECT_EQ(run_scenario(k, seed, true), expected)
          << "seed " << seed << " ring " << ring;
    }
  }
}

}  // namespace
}  // namespace hmcc
