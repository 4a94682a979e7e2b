#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace hmcc::cache {
namespace {

CacheConfig small_cfg() {
  CacheConfig cfg;
  cfg.size_bytes = 1024;  // 16 lines
  cfg.ways = 2;           // 8 sets
  cfg.line_bytes = 64;
  return cfg;
}

TEST(Cache, MissThenHit) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x13F, false).hit);   // same line
  EXPECT_FALSE(c.access(0x140, false).hit);  // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LookupDoesNotAllocate) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.lookup(0x200, false).hit);
  EXPECT_FALSE(c.probe(0x200));
  c.fill(0x200, false);
  EXPECT_TRUE(c.probe(0x200));
  EXPECT_TRUE(c.lookup(0x200, false).hit);
}

TEST(Cache, DirtyEvictionProducesWriteback) {
  const CacheConfig cfg = small_cfg();
  Cache c(cfg);
  // Fill both ways of set 0 with stores (set index = bits [6,9)).
  c.access(0 * 512, true);
  c.access(1 * 512, true);
  // Third distinct line in the same set evicts the LRU dirty line.
  const auto r = c.access(2 * 512, false);
  ASSERT_TRUE(r.writeback.has_value());
  EXPECT_EQ(*r.writeback, 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, CleanEvictionSilent) {
  Cache c(small_cfg());
  c.access(0 * 512, false);
  c.access(1 * 512, false);
  const auto r = c.access(2 * 512, false);
  EXPECT_FALSE(r.writeback.has_value());
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, StoreHitMarksDirty) {
  Cache c(small_cfg());
  c.access(0 * 512, false);  // clean fill
  c.access(0 * 512, true);   // store hit dirties it
  c.access(1 * 512, false);
  const auto r = c.access(2 * 512, false);
  ASSERT_TRUE(r.writeback.has_value());
  EXPECT_EQ(*r.writeback, 0u);
}

TEST(Cache, FillOfPresentLineMergesDirty) {
  Cache c(small_cfg());
  c.fill(0x300, false);
  EXPECT_FALSE(c.fill(0x300, true).has_value());
  // Two more lines in the same set (512 B apart) evict it; the merged dirty
  // bit surfaces as the write-back.
  EXPECT_FALSE(c.fill(0x300 + 512, false).has_value());
  const auto wb = c.fill(0x300 + 1024, false);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x300u);
}

TEST(Cache, LruOrderWithinSet) {
  Cache c(small_cfg());
  c.access(0 * 512, false);  // A
  c.access(1 * 512, false);  // B (A is LRU)
  c.access(0 * 512, false);  // touch A (B is LRU)
  c.access(2 * 512, false);  // evicts B
  EXPECT_TRUE(c.probe(0 * 512));
  EXPECT_FALSE(c.probe(1 * 512));
  EXPECT_TRUE(c.probe(2 * 512));
}

TEST(Lru, EvictsLeastRecentlyTouched) {
  CacheConfig cfg;
  cfg.size_bytes = 4 * 64;  // one set of four ways
  cfg.ways = 4;
  Cache c(cfg);
  for (Addr a : {0, 64, 128, 192}) c.access(a, false);
  c.access(0, false);  // hit: 64 is now the least recent
  c.fill(256, false);
  EXPECT_FALSE(c.probe(64));
  c.lookup(128, false);  // LLC-style hits count as touches too
  c.lookup(192, false);
  c.fill(320, false);  // 0 is the least recent now
  EXPECT_FALSE(c.probe(0));
  for (Addr a : {128, 192, 256, 320}) EXPECT_TRUE(c.probe(a)) << a;
}

TEST(Lru, SetsAreIndependent) {
  CacheConfig cfg;
  cfg.size_bytes = 4 * 64;  // two sets of two ways; bit 6 picks the set
  cfg.ways = 2;
  Cache c(cfg);
  c.access(64, false);  // set 1, the least recent line of the whole cache
  c.access(192, false);
  c.access(0, false);  // set 0
  c.access(128, false);
  c.fill(256, false);  // set 0 evicts its own LRU line, not set 1's
  EXPECT_FALSE(c.probe(0));
  EXPECT_TRUE(c.probe(64));
  c.fill(320, false);
  EXPECT_FALSE(c.probe(64));
  for (Addr a : {128, 192, 256, 320}) EXPECT_TRUE(c.probe(a)) << a;
}

TEST(Cache, WorkingSetSmallerThanCacheNeverEvicts) {
  CacheConfig cfg;
  cfg.size_bytes = 32 * 1024;
  cfg.ways = 8;
  Cache c(cfg);
  Xoshiro256 rng(3);
  std::vector<Addr> lines;
  for (int i = 0; i < 256; ++i) {
    lines.push_back(rng.below(32 * 1024 / 64) * 64);  // inside capacity... but
  }
  // Use distinct set-friendly addresses: first touch all, then re-touch.
  for (Addr a : lines) c.access(a, false);
  const std::uint64_t misses_after_warmup = c.stats().misses;
  for (int rep = 0; rep < 10; ++rep) {
    for (Addr a : lines) c.access(a, false);
  }
  EXPECT_EQ(c.stats().misses, misses_after_warmup);
}

TEST(Cache, MissRateMetric) {
  Cache c(small_cfg());
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  c.access(64, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

// ---------------------------------------------------------------------------
// Differential test: the 16-byte-line array (tag word with valid/dirty bits,
// scans that stop at the first empty way, one-pass victim pick, no second
// search for a line that was just missed) against the array it replaced:
// 24-byte lines, full-set scans, and an invalid-way loop followed by an LRU
// loop. Both must agree on every hit, every write-back and every counter.

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg),
        line_bits_(log2_floor(cfg.line_bytes)),
        num_sets_(cfg.num_sets()),
        lines_(static_cast<std::size_t>(cfg.num_sets()) * cfg.ways) {}

  [[nodiscard]] bool probe(Addr addr) const {
    return const_cast<ReferenceCache*>(this)->find(addr) != nullptr;
  }

  Cache::LookupResult lookup(Addr addr, bool is_store) {
    if (Line* line = find(addr)) {
      ++stats_.hits;
      if (is_store) line->dirty = true;
      line->stamp = ++clock_;
      return {true, std::nullopt};
    }
    ++stats_.misses;
    return {false, std::nullopt};
  }

  Cache::LookupResult access(Addr addr, bool is_store) {
    Cache::LookupResult r = lookup(addr, is_store);
    if (!r.hit) r.writeback = fill(addr, is_store);
    return r;
  }

  std::optional<Addr> fill(Addr addr, bool dirty) {
    if (Line* line = find(addr)) {
      line->dirty = line->dirty || dirty;
      line->stamp = ++clock_;
      return std::nullopt;
    }
    Line* set = set_of(addr);
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
    }
    std::optional<Addr> writeback;
    if (victim == nullptr) {
      victim = &set[0];
      for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
        if (set[w].stamp < victim->stamp) victim = &set[w];
      }
      ++stats_.evictions;
      if (victim->dirty) {
        ++stats_.writebacks;
        writeback = victim->tag << line_bits_;
      }
    }
    victim->tag = addr >> line_bits_;
    victim->valid = true;
    victim->dirty = dirty;
    victim->stamp = ++clock_;
    return writeback;
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Line {
    Addr tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };
  Line* set_of(Addr addr) {
    const auto set = (addr >> line_bits_) & (num_sets_ - 1);
    return lines_.data() + static_cast<std::size_t>(set) * cfg_.ways;
  }
  Line* find(Addr addr) {
    Line* set = set_of(addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (set[w].valid && set[w].tag == addr >> line_bits_) return &set[w];
    }
    return nullptr;
  }

  CacheConfig cfg_;
  unsigned line_bits_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.writebacks, want.writebacks);
}

TEST(CacheDifferential, MatchesTheTwentyFourByteLineArray) {
  for (std::uint32_t ways : {1u, 2u, 8u, 16u}) {
    for (std::uint32_t line : {16u, 64u}) {
      for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE(testing::Message() << ways << " ways, " << line
                                        << " B lines, seed " << seed);
        CacheConfig cfg;
        cfg.ways = ways;
        cfg.line_bytes = line;
        cfg.size_bytes = std::uint64_t{16} * ways * line;  // 16 sets
        Cache cache(cfg);
        ReferenceCache ref(cfg);
        Xoshiro256 rng(seed * 1000 + ways * 10 + line);
        // A footprint of three times the capacity keeps hits, misses and
        // evictions all common.
        const std::uint64_t lines = 3 * cfg.size_bytes / line;
        for (int op = 0; op < 20000; ++op) {
          const Addr addr = rng.below(lines) * line + rng.below(line);
          const bool store = rng.chance(0.3);
          const std::uint64_t kind = rng.below(8);
          if (kind < 3) {
            const auto got = cache.access(addr, store);
            const auto want = ref.access(addr, store);
            ASSERT_EQ(got.hit, want.hit) << op;
            ASSERT_EQ(got.writeback, want.writeback) << op;
          } else if (kind < 6) {
            // The LLC's pattern: a lookup, and on a miss sometimes a fill of
            // the same line straight away, sometimes after other traffic.
            const bool hit = cache.lookup(addr, store).hit;
            ASSERT_EQ(hit, ref.lookup(addr, store).hit) << op;
            if (!hit && rng.chance(0.5)) {
              if (rng.chance(0.5)) {
                const Addr other = rng.below(lines) * line;
                ASSERT_EQ(cache.lookup(other, false).hit,
                          ref.lookup(other, false).hit)
                    << op;
              }
              ASSERT_EQ(cache.fill(addr, store), ref.fill(addr, store)) << op;
            }
          } else if (kind < 7) {
            ASSERT_EQ(cache.fill(addr, store), ref.fill(addr, store)) << op;
          } else {
            ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << op;
          }
        }
        expect_same_stats(cache.stats(), ref.stats());
        EXPECT_GT(cache.stats().evictions, 0u);
        EXPECT_GT(cache.stats().writebacks, 0u);
        EXPECT_GT(cache.stats().hits, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace hmcc::cache
