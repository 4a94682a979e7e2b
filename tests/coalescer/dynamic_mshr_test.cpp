#include "coalescer/dynamic_mshr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace hmcc::coalescer {
namespace {

CoalescerConfig cfg4() {
  CoalescerConfig cfg;
  cfg.num_mshrs = 4;
  return cfg;
}

CoalescedPacket packet(Addr addr, std::uint32_t bytes,
                       ReqType type = ReqType::kLoad,
                       std::uint64_t first_token = 1) {
  CoalescedPacket p{};
  p.addr = addr;
  p.bytes = bytes;
  p.type = type;
  std::uint64_t token = first_token;
  for (Addr line = addr; line < addr + bytes; line += 64) {
    CoalescerRequest r{};
    r.addr = line;
    r.type = type;
    r.payload_bytes = 8;
    r.token = token++;
    p.constituents.push_back(r);
  }
  return p;
}

TEST(DynMshr, AllocateAndFill) {
  DynamicMshrFile mshr(cfg4());
  const auto res = mshr.try_insert(packet(0x1000, 256));
  ASSERT_TRUE(res.accepted);
  ASSERT_EQ(res.to_issue.size(), 1u);
  EXPECT_EQ(mshr.in_use(), 1u);

  const auto fill = mshr.on_fill(res.to_issue[0].id);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->base, 0x1000u);
  EXPECT_EQ(fill->bytes, 256u);
  ASSERT_EQ(fill->targets.size(), 4u);
  // Equation (2): subentry addresses derive from base + lineID * 64.
  std::set<Addr> lines;
  for (const auto& t : fill->targets) lines.insert(t.line_addr);
  EXPECT_EQ(lines, (std::set<Addr>{0x1000, 0x1040, 0x1080, 0x10C0}));
  EXPECT_EQ(mshr.in_use(), 0u);
}

TEST(DynMshr, Figure6CaseA_SubsetMergesAsSubentries) {
  // MSHR 1 holds a 256 B load; request 1 asks for a 128 B subset.
  DynamicMshrFile mshr(cfg4());
  const auto big = mshr.try_insert(packet(0xA8 * 64, 256, ReqType::kLoad, 1));
  ASSERT_EQ(big.to_issue.size(), 1u);
  const ReqId big_id = big.to_issue[0].id;

  const auto sub = mshr.try_insert(packet(0xA8 * 64, 128, ReqType::kLoad, 10));
  ASSERT_TRUE(sub.accepted);
  EXPECT_TRUE(sub.to_issue.empty());  // fully absorbed, no memory request
  EXPECT_EQ(mshr.in_use(), 1u);
  EXPECT_EQ(mshr.stats().full_merges, 1u);

  const auto fill = mshr.on_fill(big_id);
  ASSERT_TRUE(fill.has_value());
  // 4 original + 2 merged subentries, line IDs 00 and 01 for the merge.
  EXPECT_EQ(fill->targets.size(), 6u);
  const auto merged0 = std::count_if(
      fill->targets.begin(), fill->targets.end(),
      [](const DynMshrTarget& t) { return t.token == 10; });
  const auto merged1 = std::count_if(
      fill->targets.begin(), fill->targets.end(),
      [](const DynMshrTarget& t) { return t.token == 11; });
  EXPECT_EQ(merged0, 1);
  EXPECT_EQ(merged1, 1);
}

TEST(DynMshr, Figure6CaseB_PartialOverlapSplits) {
  // MSHR 1 holds one 64 B line; request 2 spans that line plus the next.
  // to_issue views a buffer the next try_insert() reuses, so each entry's
  // id is copied before that call.
  DynamicMshrFile mshr(cfg4());
  const auto one = mshr.try_insert(packet(0xA8 * 64, 64, ReqType::kLoad, 1));
  ASSERT_EQ(one.to_issue.size(), 1u);
  const ReqId one_id = one.to_issue[0].id;

  const auto two = mshr.try_insert(packet(0xA8 * 64, 128, ReqType::kLoad, 20));
  ASSERT_TRUE(two.accepted);
  ASSERT_EQ(two.to_issue.size(), 1u);  // only the non-overlapped remainder
  EXPECT_EQ(two.to_issue[0].addr, 0xA9u * 64);
  EXPECT_EQ(two.to_issue[0].bytes, 64u);
  const ReqId two_id = two.to_issue[0].id;
  EXPECT_EQ(mshr.in_use(), 2u);
  EXPECT_EQ(mshr.stats().partial_merges, 1u);

  // The overlapped line (token 20) rides on entry 1.
  const auto fill1 = mshr.on_fill(one_id);
  ASSERT_TRUE(fill1.has_value());
  EXPECT_EQ(fill1->targets.size(), 2u);
  // The remainder (token 21) completes with entry 2.
  const auto fill2 = mshr.on_fill(two_id);
  ASSERT_TRUE(fill2.has_value());
  ASSERT_EQ(fill2->targets.size(), 1u);
  EXPECT_EQ(fill2->targets[0].token, 21u);
  EXPECT_EQ(fill2->targets[0].line_addr, 0xA9u * 64);
}

TEST(DynMshr, TypesNeverMerge) {
  DynamicMshrFile mshr(cfg4());
  const auto load = mshr.try_insert(packet(0x1000, 256, ReqType::kLoad));
  ASSERT_EQ(load.to_issue.size(), 1u);
  const auto store = mshr.try_insert(packet(0x1000, 128, ReqType::kStore));
  ASSERT_TRUE(store.accepted);
  EXPECT_EQ(store.to_issue.size(), 1u);  // allocated, not merged
  EXPECT_EQ(mshr.in_use(), 2u);
  EXPECT_EQ(mshr.stats().full_merges, 0u);
}

TEST(DynMshr, FullFileRejectsWithoutSideEffects) {
  DynamicMshrFile mshr(cfg4());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        mshr.try_insert(packet(0x10000u * static_cast<Addr>(i + 1), 64))
            .accepted);
  }
  EXPECT_TRUE(mshr.full());
  const auto rej = mshr.try_insert(packet(0x90000, 64));
  EXPECT_FALSE(rej.accepted);
  EXPECT_TRUE(rej.to_issue.empty());
  EXPECT_EQ(mshr.stats().rejects_full, 1u);
  // Merging into an existing entry still works while full.
  const auto merged = mshr.try_insert(packet(0x10000, 64, ReqType::kLoad, 9));
  EXPECT_TRUE(merged.accepted);
  EXPECT_TRUE(merged.to_issue.empty());
}

TEST(DynMshr, PartialRejectedWhenRemainderNeedsTooManyEntries) {
  CoalescerConfig cfg = cfg4();
  cfg.num_mshrs = 1;
  DynamicMshrFile mshr(cfg);
  ASSERT_TRUE(mshr.try_insert(packet(0x1000, 64)).accepted);
  // Packet overlapping the entry plus a remainder: needs one new entry but
  // none is free -> atomic reject, no subentries attached.
  const auto before = mshr.stats().merged_constituents;
  const auto res = mshr.try_insert(packet(0x1000, 128));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(mshr.stats().merged_constituents, before);
}

TEST(DynMshr, NonContiguousRemainderSplitsIntoMultiplePackets) {
  DynamicMshrFile mshr(cfg4());
  // In-flight entry covers the two middle lines of a block.
  const auto mid = mshr.try_insert(packet(0x1040, 128, ReqType::kLoad, 1));
  ASSERT_EQ(mid.to_issue.size(), 1u);
  // A 256 B packet over the whole block: lines 0 and 3 remain, and they are
  // not contiguous -> two 64 B remainder packets.
  const auto res = mshr.try_insert(packet(0x1000, 256, ReqType::kLoad, 10));
  ASSERT_TRUE(res.accepted);
  ASSERT_EQ(res.to_issue.size(), 2u);
  std::set<Addr> addrs{res.to_issue[0].addr, res.to_issue[1].addr};
  EXPECT_EQ(addrs, (std::set<Addr>{0x1000, 0x10C0}));
  EXPECT_EQ(res.to_issue[0].bytes, 64u);
  EXPECT_EQ(res.to_issue[1].bytes, 64u);
}

TEST(DynMshr, MergeOnlyAcceptsOnlyFullCoverage) {
  DynamicMshrFile mshr(cfg4());
  const auto big = mshr.try_insert(packet(0x1000, 128, ReqType::kLoad, 1));
  ASSERT_EQ(big.to_issue.size(), 1u);
  EXPECT_TRUE(mshr.try_merge_only(packet(0x1000, 64, ReqType::kLoad, 5)));
  EXPECT_FALSE(mshr.try_merge_only(packet(0x1000, 256, ReqType::kLoad, 6)));
  EXPECT_FALSE(mshr.try_merge_only(packet(0x4000, 64, ReqType::kLoad, 7)));
  EXPECT_EQ(mshr.in_use(), 1u);
}

TEST(DynMshr, MergeDisabledByConfig) {
  CoalescerConfig cfg = cfg4();
  cfg.enable_mshr_merge = false;
  DynamicMshrFile mshr(cfg);
  ASSERT_TRUE(mshr.try_insert(packet(0x1000, 256)).accepted);
  const auto res = mshr.try_insert(packet(0x1000, 64));
  ASSERT_TRUE(res.accepted);
  EXPECT_EQ(res.to_issue.size(), 1u);  // duplicate fetch instead of merge
  EXPECT_FALSE(mshr.try_merge_only(packet(0x1000, 64)));
}

TEST(DynMshr, SubentryCapacityBoundsMerging) {
  CoalescerConfig cfg = cfg4();
  cfg.max_subentries = 5;  // entry starts with 4 subentries for 256 B
  DynamicMshrFile mshr(cfg);
  ASSERT_TRUE(mshr.try_insert(packet(0x1000, 256)).accepted);
  // One more subentry fits...
  EXPECT_TRUE(mshr.try_merge_only(packet(0x1000, 64, ReqType::kLoad, 9)));
  // ...but the next does not.
  EXPECT_FALSE(mshr.try_merge_only(packet(0x1000, 64, ReqType::kLoad, 10)));
}

TEST(DynMshr, FillUnknownIdReturnsNothing) {
  DynamicMshrFile mshr(cfg4());
  EXPECT_FALSE(mshr.on_fill(12345).has_value());
}

TEST(DynMshr, PropertyTokensNeverLostAcrossRandomTraffic) {
  CoalescerConfig cfg;
  cfg.num_mshrs = 8;
  cfg.max_subentries = 6;  // full entries force overlapping allocations
  DynamicMshrFile mshr(cfg);
  Xoshiro256 rng(41);
  std::multiset<std::uint64_t> outstanding_tokens;
  std::multiset<std::uint64_t> completed_tokens;
  std::vector<CoalescedPacket> inflight;  // issued packets, ids assigned
  std::uint64_t next_token = 1;
  // Packets whose try_merge_only() failed. The CRQ's skip rule rests on
  // this: each keeps failing until an entry with its type that overlaps it
  // is allocated.
  std::vector<CoalescedPacket> failed;
  std::size_t rechecks = 0;

  auto random_packet = [&](Addr block) {
    const std::uint32_t lines = 1u << rng.below(3);
    const Addr addr = block + rng.below(4 / lines + 1) * lines * 64;
    CoalescedPacket p =
        packet(addr, lines * 64,
               rng.chance(0.25) ? ReqType::kStore : ReqType::kLoad,
               next_token);
    next_token += lines;
    return p;
  };
  auto track = [&](const CoalescedPacket& p) {
    for (const auto& c : p.constituents) outstanding_tokens.insert(c.token);
  };
  auto expect_failed_still_fail = [&] {
    for (const CoalescedPacket& f : failed) {
      EXPECT_FALSE(mshr.try_merge_only(f))
          << "packet 0x" << std::hex << f.addr << " merged";
      ++rechecks;
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const double action = rng.uniform();
    if (action < 0.45 || inflight.empty()) {
      const CoalescedPacket p = random_packet(rng.below(256) * 256);
      const auto res = mshr.try_insert(p);
      if (res.accepted) {
        track(p);
        for (const auto& np : res.to_issue) {
          inflight.push_back(np);
          std::erase_if(failed, [&np](const CoalescedPacket& f) {
            return f.type == np.type && f.addr < np.end() &&
                   np.addr < f.end();
          });
        }
        expect_failed_still_fail();  // attaches, disjoint allocations
      }
    } else if (action < 0.65) {
      // A CRQ merge check against the block of an in-flight entry.
      const Addr block = align_down(
          inflight[rng.below(inflight.size())].addr, Addr{256});
      CoalescedPacket p = random_packet(block);
      if (mshr.try_merge_only(p)) {
        track(p);
        expect_failed_still_fail();  // attaches
      } else {
        failed.push_back(std::move(p));
        if (failed.size() > 16) failed.erase(failed.begin());
      }
    } else {
      const auto idx = rng.below(inflight.size());
      const auto fill = mshr.on_fill(inflight[idx].id);
      ASSERT_TRUE(fill.has_value());
      for (const auto& t : fill->targets) completed_tokens.insert(t.token);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(idx));
      expect_failed_still_fail();
    }
    EXPECT_LE(mshr.in_use(), mshr.capacity());
  }
  EXPECT_GT(rechecks, 1000u);
  EXPECT_GT(mshr.stats().full_merges, 0u);
  // Drain.
  for (const auto& p : inflight) {
    const auto fill = mshr.on_fill(p.id);
    ASSERT_TRUE(fill.has_value());
    for (const auto& t : fill->targets) completed_tokens.insert(t.token);
  }
  EXPECT_EQ(mshr.in_use(), 0u);
  EXPECT_EQ(outstanding_tokens, completed_tokens);
}

}  // namespace
}  // namespace hmcc::coalescer
