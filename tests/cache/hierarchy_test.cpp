#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"

namespace hmcc::cache {
namespace {

HierarchyConfig tiny_cfg() {
  HierarchyConfig cfg;
  cfg.num_cores = 2;
  cfg.l1 = {.size_bytes = 1024, .ways = 2, .hit_latency = 4};
  cfg.l2 = {.size_bytes = 4096, .ways = 4, .hit_latency = 12};
  cfg.llc = {.size_bytes = 16384, .ways = 8, .hit_latency = 30};
  return cfg;
}

TEST(Hierarchy, ColdMissGoesToMemory) {
  Hierarchy h(tiny_cfg());
  const auto r = h.access(0, 0x1000, ReqType::kLoad);
  EXPECT_EQ(r.level, HitLevel::kMemory);
  EXPECT_EQ(r.line_addr, 0x1000u);
  EXPECT_EQ(r.latency, 4u + 12u + 30u);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  Hierarchy h(tiny_cfg());
  h.access(0, 0x1000, ReqType::kLoad);
  const auto r = h.access(0, 0x1008, ReqType::kLoad);  // same line
  EXPECT_EQ(r.level, HitLevel::kL1);
  EXPECT_EQ(r.latency, 4u);
}

TEST(Hierarchy, CrossCoreMissesIndependently) {
  Hierarchy h(tiny_cfg());
  h.access(0, 0x2000, ReqType::kLoad);
  // Core 1's private caches don't hold the line; the LLC hasn't been filled
  // yet (fills happen on memory response), so this also goes to memory.
  const auto r = h.access(1, 0x2000, ReqType::kLoad);
  EXPECT_EQ(r.level, HitLevel::kMemory);
}

TEST(Hierarchy, LlcHitAfterFill) {
  Hierarchy h(tiny_cfg());
  h.access(0, 0x3000, ReqType::kLoad);
  h.fill_llc(0x3000, false);
  EXPECT_TRUE(h.llc().probe(0x3000));
  const auto r = h.access(1, 0x3000, ReqType::kLoad);
  EXPECT_EQ(r.level, HitLevel::kLlc);
  EXPECT_EQ(r.latency, 4u + 12u + 30u);
}

TEST(Hierarchy, DirtyL2VictimWritesBackToMemoryWhenLlcLacksLine) {
  HierarchyConfig cfg = tiny_cfg();
  // Shrink L1/L2 so evictions happen quickly: L1 = 2 lines, L2 = 4 lines.
  cfg.l1 = {.size_bytes = 128, .ways = 2, .hit_latency = 4};
  cfg.l2 = {.size_bytes = 256, .ways = 4, .hit_latency = 12};
  Hierarchy h(cfg);
  // Dirty a line, then stream enough distinct lines through the same sets to
  // push it out of both private levels.
  h.access(0, 0x0, ReqType::kStore);
  std::vector<Addr> wbs;
  for (Addr a = 0x40; a < 0x40 + 64 * 16; a += 64) {
    auto r = h.access(0, a, ReqType::kLoad);
    for (Addr wb : r.memory_writebacks) wbs.push_back(wb);
  }
  // The dirty line 0x0 must have been written back to memory exactly once.
  EXPECT_EQ(std::count(wbs.begin(), wbs.end(), 0x0), 1);
}

TEST(Hierarchy, DirtyL2VictimMergesIntoPresentLlcLine) {
  HierarchyConfig cfg = tiny_cfg();
  cfg.l1 = {.size_bytes = 128, .ways = 2, .hit_latency = 4};
  cfg.l2 = {.size_bytes = 256, .ways = 4, .hit_latency = 12};
  Hierarchy h(cfg);
  h.access(0, 0x0, ReqType::kStore);
  h.fill_llc(0x0, false);  // the LLC now holds a (clean) copy
  std::vector<Addr> wbs;
  for (Addr a = 0x40; a < 0x40 + 64 * 16; a += 64) {
    auto r = h.access(0, a, ReqType::kLoad);
    for (Addr wb : r.memory_writebacks) wbs.push_back(wb);
  }
  // No memory write-back: the dirty data merged into the LLC copy...
  EXPECT_EQ(std::count(wbs.begin(), wbs.end(), 0x0), 0);
}

TEST(Hierarchy, FillLlcEvictionReturnsDirtyVictim) {
  HierarchyConfig cfg = tiny_cfg();
  cfg.llc = {.size_bytes = 128, .ways = 2, .hit_latency = 30};  // 1 set
  Hierarchy h(cfg);
  h.fill_llc(0x0, true);
  h.fill_llc(0x40, false);
  const auto victim = h.fill_llc(0x80, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0x0u);
}

TEST(Hierarchy, RandomStreamConsistentLevels) {
  Hierarchy h(tiny_cfg());
  Xoshiro256 rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t core = static_cast<std::uint32_t>(rng.below(2));
    const Addr addr = rng.below(1 << 20);
    const auto r =
        h.access(core, addr, rng.chance(0.3) ? ReqType::kStore : ReqType::kLoad);
    if (r.level == HitLevel::kMemory) h.fill_llc(r.line_addr, false);
    // After any access the line is guaranteed to be in the core's L1.
    const auto again = h.access(core, addr, ReqType::kLoad);
    EXPECT_EQ(again.level, HitLevel::kL1);
  }
}

TEST(Hierarchy, PooledWritebackVectorsAreIdentityPreserving) {
  Hierarchy plain(tiny_cfg());
  Hierarchy pooled(tiny_cfg());
  // A store-heavy random stream forces dirty evictions at every level; a
  // caller that recycles its write-back vectors must observe exactly what
  // one that lets them free observes.
  Xoshiro256 rng(99);
  int reused = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto core = static_cast<std::uint32_t>(rng.below(2));
    const Addr addr = rng.below(1 << 10) * 64;
    const ReqType type = rng.chance(0.5) ? ReqType::kStore : ReqType::kLoad;
    auto a = plain.access(core, addr, type);
    auto b = pooled.access(core, addr, type);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.line_addr, b.line_addr);
    EXPECT_EQ(a.latency, b.latency);
    ASSERT_EQ(a.memory_writebacks, b.memory_writebacks);
    // A fresh vector with no write-backs has no capacity; an empty one
    // that does came off the free list.
    EXPECT_EQ(a.memory_writebacks.capacity() == 0, a.memory_writebacks.empty());
    if (b.memory_writebacks.empty() && b.memory_writebacks.capacity() > 0) {
      ++reused;
    }
    pooled.recycle(std::move(b.memory_writebacks));
  }
  EXPECT_GT(reused, 0);
}

}  // namespace
}  // namespace hmcc::cache
