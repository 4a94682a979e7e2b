// HybridBackend tag-table and migration-engine unit tests: fills, hits,
// LRU eviction with dirty write-back, stall-behind-fill waiters, epoch
// promotion, and the static split — all observed through tier_stats()
// and the completion callback ids.
#include "mem/hybrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "system/config_bridge.hpp"

namespace hmcc::mem {
namespace {

coalescer::CoalescedPacket pkt(ReqId id, Addr addr,
                               ReqType type = ReqType::kLoad) {
  coalescer::CoalescedPacket p{};
  p.id = id;
  p.addr = addr;
  p.bytes = 64;
  p.type = type;
  return p;
}

struct Harness {
  Kernel kernel;
  std::vector<ReqId> completed;
  HybridBackend backend;

  explicit Harness(const MemConfig& cfg)
      : backend(kernel, hmc::HmcConfig{}, cfg,
                [this](ReqId id) { completed.push_back(id); }) {}

  void run_one(const coalescer::CoalescedPacket& p) {
    backend.submit(p);
    kernel.run();
  }
  [[nodiscard]] bool saw(ReqId id) const {
    return std::find(completed.begin(), completed.end(), id) !=
           completed.end();
  }
};

MemConfig tiered(HybridScheme scheme) {
  MemConfig m;
  m.backend = BackendKind::kHybrid;
  m.scheme = scheme;
  m.page_bytes = 4096;
  m.fast_pages = 4;  // 2 sets x 2 ways
  m.tag_ways = 2;
  m.migrate_epoch = 2000;
  m.hot_threshold = 2;
  system::SystemConfig sys;
  sys.mem = m;
  std::vector<std::string> errors;
  desc::check_constraints(system::platform_constraints(), sys, errors);
  EXPECT_EQ(errors, std::vector<std::string>{});
  return m;
}

Addr page_addr(std::uint64_t page) { return page * 4096; }

TEST(HybridCache, MissFillsThenHitsWithoutRefill) {
  Harness h(tiered(HybridScheme::kCache));
  h.run_one(pkt(1, page_addr(0)));
  EXPECT_TRUE(h.saw(1));
  MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.page_fills, 1u);
  EXPECT_EQ(t.fast_hits, 1u);  // the waiter, released at fill time
  EXPECT_EQ(t.slow_accesses, 0u);  // fills are migration, not demand
  EXPECT_EQ(t.migration_bytes, 4096u);

  h.run_one(pkt(2, page_addr(0) + 128));
  t = h.backend.tier_stats();
  EXPECT_TRUE(h.saw(2));
  EXPECT_EQ(t.page_fills, 1u);  // resident: no second fill
  EXPECT_EQ(t.fast_hits, 2u);
  EXPECT_EQ(h.backend.outstanding(), 0u);
}

TEST(HybridCache, DemandsStallBehindAnInFlightFill) {
  Harness h(tiered(HybridScheme::kCache));
  h.backend.submit(pkt(1, page_addr(0)));
  h.backend.submit(pkt(2, page_addr(0) + 64));  // same page, fill pending
  EXPECT_GE(h.backend.outstanding(), 2u);       // stalled waiters count
  h.kernel.run();
  EXPECT_TRUE(h.saw(1));
  EXPECT_TRUE(h.saw(2));
  const MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.page_fills, 1u);
  EXPECT_EQ(t.fast_hits, 2u);
  EXPECT_EQ(h.backend.outstanding(), 0u);
}

TEST(HybridCache, LruEvictionWritesBackDirtyVictims) {
  Harness h(tiered(HybridScheme::kCache));
  // num_sets = 2, so even pages all map to set 0. Fill both ways...
  h.run_one(pkt(1, page_addr(0), ReqType::kStore));  // dirty
  h.run_one(pkt(2, page_addr(2)));                   // clean
  // ...touch page 2 so page 0 is the LRU way, then force an eviction.
  h.run_one(pkt(3, page_addr(2) + 64));
  h.run_one(pkt(4, page_addr(4)));
  const MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.page_fills, 3u);
  EXPECT_EQ(t.demotions, 1u);
  EXPECT_EQ(t.dirty_writebacks, 1u);  // page 0 went back dirty
  // Page 2 must still be resident (page 0 was the victim).
  h.run_one(pkt(5, page_addr(2)));
  EXPECT_EQ(h.backend.tier_stats().page_fills, 3u);
  // 3 fills + 1 write-back pages moved.
  EXPECT_EQ(t.migration_bytes, 4u * 4096u);
}

TEST(HybridMigrate, HotSlowPageIsPromotedAtTheEpoch) {
  Harness h(tiered(HybridScheme::kMigrate));
  // Page 1 is odd = slow-homed. Touch it hot_threshold times inside one
  // epoch (kernel.run() drains past the epoch boundary, so both touches
  // go in before running).
  h.backend.submit(pkt(1, page_addr(1)));
  h.backend.submit(pkt(2, page_addr(1) + 64));
  h.kernel.run();
  MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.slow_accesses, 2u);
  EXPECT_GE(t.epochs, 1u);
  EXPECT_EQ(t.promotions, 1u);
  EXPECT_TRUE(h.saw(1));
  EXPECT_TRUE(h.saw(2));

  // The promoted page now serves from the fast tier.
  const std::uint64_t fast_before = t.fast_hits;
  h.run_one(pkt(4, page_addr(1) + 128));
  t = h.backend.tier_stats();
  EXPECT_EQ(t.fast_hits, fast_before + 1);
  EXPECT_EQ(t.slow_accesses, 2u);
}

TEST(HybridMigrate, ColdSlowPagesStaySlow) {
  Harness h(tiered(HybridScheme::kMigrate));
  h.run_one(pkt(1, page_addr(1)));  // one touch < hot_threshold
  h.run_one(pkt(2, page_addr(3)));
  const MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.promotions, 0u);
  EXPECT_EQ(t.slow_accesses, 2u);
  EXPECT_TRUE(h.saw(1));
  EXPECT_TRUE(h.saw(2));
}

TEST(HybridStatic, EvenPagesFastOddPagesSlow) {
  Harness h(tiered(HybridScheme::kStatic));
  h.run_one(pkt(1, page_addr(0)));
  h.run_one(pkt(2, page_addr(1)));
  const MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.fast_hits, 1u);
  EXPECT_EQ(t.slow_accesses, 1u);
  EXPECT_EQ(t.page_fills, 0u);
  EXPECT_EQ(t.migration_packets, 0u);
  EXPECT_TRUE(h.saw(1));
  EXPECT_TRUE(h.saw(2));
  EXPECT_NEAR(t.fast_hit_rate(), 0.5, 1e-9);
}

TEST(HybridDegenerate, UnboundedFastTierNeverTouchesTheSlowDevice) {
  MemConfig m;
  m.backend = BackendKind::kHybrid;
  m.fast_pages = 0;  // the CI byte-identity degenerate point
  Harness h(m);
  h.run_one(pkt(1, page_addr(1)));  // odd page: would be slow if tiered
  h.run_one(pkt(2, page_addr(12345)));
  const MemTierStats t = h.backend.tier_stats();
  EXPECT_EQ(t.fast_hits, 2u);
  EXPECT_EQ(t.slow_accesses, 0u);
  EXPECT_EQ(t.migration_packets, 0u);
  EXPECT_TRUE(h.saw(1));
  EXPECT_TRUE(h.saw(2));
}

}  // namespace
}  // namespace hmcc::mem
