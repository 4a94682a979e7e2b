#include "coalescer/dmc_unit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace hmcc::coalescer {
namespace {

CoalescerRequest req(Addr addr, ReqType type = ReqType::kLoad,
                     std::uint32_t payload = 64, std::uint64_t token = 0) {
  CoalescerRequest r{};
  r.addr = addr;
  r.type = type;
  r.payload_bytes = payload;
  r.token = token;
  return r;
}

std::vector<CoalescerRequest> sorted(std::vector<CoalescerRequest> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const CoalescerRequest& a, const CoalescerRequest& b) {
                     return a.sort_key() < b.sort_key();
                   });
  return v;
}

/// Invariant checker: the packets must cover exactly the union of requested
/// lines, each constituent appears exactly once, no packet mixes types or
/// crosses a max-packet block.
void check_coverage(const std::vector<CoalescerRequest>& in,
                    const DmcResult& out, const CoalescerConfig& cfg) {
  using TypedLine = std::pair<int, Addr>;
  std::multiset<std::uint64_t> in_tokens;
  std::set<TypedLine> in_lines;
  for (const auto& r : in) {
    in_tokens.insert(r.token);
    in_lines.insert({static_cast<int>(r.type),
                     align_down(r.addr, cfg.line_bytes)});
  }
  std::multiset<std::uint64_t> out_tokens;
  std::set<TypedLine> out_lines;
  for (const auto& p : out.packets) {
    EXPECT_EQ(p.bytes % cfg.line_bytes, 0u);
    EXPECT_TRUE(p.bytes == 64 || p.bytes == 128 || p.bytes == 256)
        << p.bytes;
    // Block containment.
    EXPECT_EQ(align_down(p.addr, cfg.max_packet_bytes),
              align_down(p.end() - 1, cfg.max_packet_bytes));
    for (Addr l = p.addr; l < p.end(); l += cfg.line_bytes) {
      EXPECT_TRUE(out_lines.insert({static_cast<int>(p.type), l}).second)
          << "duplicate (type,line)";
    }
    for (const auto& c : p.constituents) {
      out_tokens.insert(c.token);
      EXPECT_EQ(c.type, p.type) << "type-mixed packet";
      const Addr cl = align_down(c.addr, cfg.line_bytes);
      EXPECT_GE(cl, p.addr);
      EXPECT_LT(cl, p.end());
    }
  }
  EXPECT_EQ(out_tokens, in_tokens) << "constituents lost or duplicated";
  // Every requested line is covered; over-fetch only from power-of-two
  // chunking inside a block never happens in line mode (runs split exactly).
  EXPECT_EQ(out_lines, in_lines);
}

TEST(DmcLine, FourContiguousLinesBecomeOne256B) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000), req(0x1040), req(0x1080), req(0x10C0)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].addr, 0x1000u);
  EXPECT_EQ(out.packets[0].bytes, 256u);
  EXPECT_EQ(out.packets[0].constituents.size(), 4u);
  check_coverage(in, out, CoalescerConfig{});
}

TEST(DmcLine, TwoContiguousLinesBecome128B) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000), req(0x1040)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].bytes, 128u);
}

TEST(DmcLine, ThreeContiguousLinesSplit128Plus64) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000), req(0x1040), req(0x1080)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.packets[0].bytes, 128u);
  EXPECT_EQ(out.packets[0].addr, 0x1000u);
  EXPECT_EQ(out.packets[1].bytes, 64u);
  EXPECT_EQ(out.packets[1].addr, 0x1080u);
  check_coverage(in, out, CoalescerConfig{});
}

TEST(DmcLine, NonContiguousStayUncoalesced) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000), req(0x2000), req(0x3000)});
  const DmcResult out = dmc.coalesce(in, 0);
  EXPECT_EQ(out.packets.size(), 3u);
  EXPECT_EQ(out.merge_ops, 0u);
  for (const auto& p : out.packets) EXPECT_EQ(p.bytes, 64u);
}

TEST(DmcLine, RunsNeverCrossBlockBoundary) {
  DmcUnit dmc(CoalescerConfig{});
  // Lines 0x1C0 and 0x200 are contiguous but straddle the 256 B boundary.
  auto in = sorted({req(0x1C0), req(0x200)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.packets[0].bytes, 64u);
  EXPECT_EQ(out.packets[1].bytes, 64u);
}

TEST(DmcLine, LoadsAndStoresNeverMix) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000, ReqType::kLoad), req(0x1040, ReqType::kStore),
                    req(0x1080, ReqType::kLoad),
                    req(0x10C0, ReqType::kStore)});
  const DmcResult out = dmc.coalesce(in, 0);
  // Sorted order groups loads {0x1000,0x1080} and stores {0x1040,0x10C0};
  // neither pair is contiguous, so four packets result.
  EXPECT_EQ(out.packets.size(), 4u);
  check_coverage(in, out, CoalescerConfig{});
}

TEST(DmcLine, ContiguousSameTypeMixedStreamCoalescesPerType) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000, ReqType::kLoad), req(0x1040, ReqType::kLoad),
                    req(0x2000, ReqType::kStore),
                    req(0x2040, ReqType::kStore)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.packets[0].type, ReqType::kLoad);
  EXPECT_EQ(out.packets[0].bytes, 128u);
  EXPECT_EQ(out.packets[1].type, ReqType::kStore);
  EXPECT_EQ(out.packets[1].bytes, 128u);
}

TEST(DmcLine, DuplicateLinesDedupe) {
  DmcUnit dmc(CoalescerConfig{});
  auto in = sorted({req(0x1000, ReqType::kLoad, 8, 1),
                    req(0x1008, ReqType::kLoad, 8, 2),
                    req(0x1040, ReqType::kLoad, 8, 3)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].bytes, 128u);
  EXPECT_EQ(out.packets[0].constituents.size(), 3u);
  check_coverage(in, out, CoalescerConfig{});
}

TEST(DmcLine, EmptyInputYieldsNothing) {
  DmcUnit dmc(CoalescerConfig{});
  const DmcResult out = dmc.coalesce({}, 5);
  EXPECT_TRUE(out.packets.empty());
}

TEST(DmcLine, TimingGrowsWithMergeWork) {
  DmcUnit dmc(CoalescerConfig{});
  // Fully coalescable window vs fully scattered window of the same size:
  // the coalescable one spends more merge-stage slots (Fig 13's FT effect).
  std::vector<CoalescerRequest> dense;
  std::vector<CoalescerRequest> sparse;
  for (int i = 0; i < 16; ++i) {
    dense.push_back(req(0x4000 + 64u * static_cast<Addr>(i)));
    sparse.push_back(req(0x4000 + 4096u * static_cast<Addr>(i)));
  }
  const DmcResult d = dmc.coalesce(sorted(dense), 0);
  const DmcResult s = dmc.coalesce(sorted(sparse), 0);
  EXPECT_GT(d.merge_ops, s.merge_ops);
  EXPECT_GT(d.finished_at, s.finished_at);
}

TEST(DmcLine, PropertyRandomWindowsPreserveCoverage) {
  const CoalescerConfig cfg = CoalescerConfig{};
  DmcUnit dmc(cfg);
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<CoalescerRequest> in;
    const auto n = rng.between(1, 16);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Addr line = rng.below(64) * 64;  // dense little region
      in.push_back(req(line, rng.chance(0.3) ? ReqType::kStore
                                             : ReqType::kLoad,
                       8, trial * 100 + i));
    }
    auto s = sorted(in);
    // Dedup identical (line,type) pairs for the line-coverage check but keep
    // all tokens.
    const DmcResult out = dmc.coalesce(s, 0);
    check_coverage(in, out, cfg);
  }
}

// ---------------------------------------------------------------------------
// Compare-slot accounting at run breaks (§4.1 timing model)
// ---------------------------------------------------------------------------
//
// A run can end two ways and they charge differently: a TYPE mismatch is
// detected before the candidate enters the compare stage (no charge), while
// an ADDRESS mismatch is discovered by the compare itself — the slot is
// charged, then refunded because re-opening the run reuses the same hardware
// slot. Net effect: both two-request windows below finish at start + 3*tau.

TEST(DmcLine, AddressMismatchRefundsItsCompareSlot) {
  const CoalescerConfig cfg = CoalescerConfig{};
  DmcUnit dmc(cfg);
  auto in = sorted({req(0x1000), req(0x3000)});  // same type, far apart
  const DmcResult out = dmc.coalesce(in, 7);
  EXPECT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.merge_ops, 0u);
  // fill + opener + (compare - refund) + second opener = 3 tau
  EXPECT_EQ(out.finished_at, 7 + 3 * cfg.tau);
}

TEST(DmcLine, TypeMismatchNeverEntersTheCompareStage) {
  const CoalescerConfig cfg = CoalescerConfig{};
  DmcUnit dmc(cfg);
  // Adjacent lines, different types: would be contiguous if types matched.
  auto in = sorted({req(0x1000, ReqType::kLoad), req(0x1040, ReqType::kStore)});
  const DmcResult out = dmc.coalesce(in, 7);
  EXPECT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.merge_ops, 0u);
  // fill + opener + second opener: identical cost to the refunded
  // address-mismatch above even though no compare was ever issued.
  EXPECT_EQ(out.finished_at, 7 + 3 * cfg.tau);
}

TEST(DmcLine, RunBreakAfterMergeChargesExactly) {
  const CoalescerConfig cfg = CoalescerConfig{};
  DmcUnit dmc(cfg);
  auto in = sorted({req(0x1000), req(0x1040), req(0x3000)});
  const DmcResult out = dmc.coalesce(in, 0);
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.packets[0].addr, 0x1000u);
  EXPECT_EQ(out.packets[0].bytes, 128u);
  EXPECT_EQ(out.packets[1].addr, 0x3000u);
  EXPECT_EQ(out.merge_ops, 1u);
  // fill + opener + compare + merge + (compare - refund) + opener = 5 tau
  EXPECT_EQ(out.finished_at, 5 * cfg.tau);
}

// ---------------------------------------------------------------------------
// Payload granularity (Figures 9-10 accounting mode)
// ---------------------------------------------------------------------------

TEST(DmcPayload, SixteenContiguous16BLoadsBecomeOne256B) {
  std::vector<CoalescerRequest> in;
  for (int i = 0; i < 16; ++i) {
    in.push_back(req(0x1000 + 16u * static_cast<Addr>(i), ReqType::kLoad, 16));
  }
  const DmcResult out = coalesce_payload(CoalescerConfig{}, sorted(in), 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].bytes, 256u);
  EXPECT_EQ(out.packets[0].payload_bytes(), 256u);
}

TEST(DmcPayload, ScatteredSmallLoadsStaySmall) {
  std::vector<CoalescerRequest> in;
  for (int i = 0; i < 8; ++i) {
    in.push_back(req(0x10000 * static_cast<Addr>(i + 1), ReqType::kLoad, 8));
  }
  const DmcResult out = coalesce_payload(CoalescerConfig{}, sorted(in), 0);
  EXPECT_EQ(out.packets.size(), 8u);
  for (const auto& p : out.packets) EXPECT_EQ(p.bytes, 16u);
}

TEST(DmcPayload, SizesRoundToFlitMultiples) {
  auto in = sorted({req(0x1000, ReqType::kLoad, 8),
                    req(0x1008, ReqType::kLoad, 24)});
  const DmcResult out = coalesce_payload(CoalescerConfig{}, in, 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].bytes, 32u);  // 32 bytes covered exactly
}

TEST(DmcPayload, GapBetween128And256Rounds) {
  // 10 x 16 B contiguous = 160 B payload -> must round to 256 B (HMC has no
  // 144..240 B commands) and anchor inside one block.
  std::vector<CoalescerRequest> in;
  for (int i = 0; i < 10; ++i) {
    in.push_back(req(0x2000 + 16u * static_cast<Addr>(i), ReqType::kLoad, 16));
  }
  const DmcResult out = coalesce_payload(CoalescerConfig{}, sorted(in), 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].bytes, 256u);
  EXPECT_EQ(align_down(out.packets[0].addr, 256),
            align_down(out.packets[0].end() - 1, 256));
}

TEST(DmcPayload, RequestStraddlingBlockIsSplit) {
  auto in = sorted({req(0x10F8, ReqType::kLoad, 16)});  // crosses 0x1100
  const DmcResult out = coalesce_payload(CoalescerConfig{}, in, 0);
  ASSERT_EQ(out.packets.size(), 2u);
  std::uint64_t payload = 0;
  for (const auto& p : out.packets) payload += p.payload_bytes();
  EXPECT_EQ(payload, 16u);
}

TEST(DmcPayload, OverlappingExtentsMerge) {
  auto in = sorted({req(0x3000, ReqType::kLoad, 32),
                    req(0x3010, ReqType::kLoad, 32)});
  const DmcResult out = coalesce_payload(CoalescerConfig{}, in, 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].bytes, 48u);
}

TEST(DmcPayload, SplitTailMergesWithNextBlockExtent) {
  // 0x10F0+32 straddles the 0x1100 block boundary: its head stays in the
  // first block and its tail (0x1100, 16 B) must seed a new extent that the
  // following request then joins.
  auto in = sorted({req(0x10F0, ReqType::kLoad, 32),
                    req(0x1110, ReqType::kLoad, 16)});
  const DmcResult out = coalesce_payload(CoalescerConfig{}, in, 0);
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.packets[0].addr, 0x10F0u);
  EXPECT_EQ(out.packets[0].bytes, 16u);
  EXPECT_EQ(out.packets[1].addr, 0x1100u);
  EXPECT_EQ(out.packets[1].bytes, 32u);
  std::uint64_t payload = 0;
  for (const auto& p : out.packets) payload += p.payload_bytes();
  EXPECT_EQ(payload, 48u);
}

TEST(DmcPayload, RoundingSpillReAnchorsAtBlockStart) {
  // 10 x 16 B at 0x2060..0x20F0: the 160 B extent rounds to 256 B, which
  // would spill past 0x2100 if anchored at 0x2060 — the packet must re-anchor
  // at the block start 0x2000.
  std::vector<CoalescerRequest> in;
  for (int i = 0; i < 10; ++i) {
    in.push_back(req(0x2060 + 16u * static_cast<Addr>(i), ReqType::kLoad, 16));
  }
  const DmcResult out = coalesce_payload(CoalescerConfig{}, sorted(in), 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].addr, 0x2000u);
  EXPECT_EQ(out.packets[0].bytes, 256u);
  EXPECT_EQ(out.packets[0].payload_bytes(), 160u);
}

TEST(DmcPayload, ExactFitKeepsTheExtentAnchor) {
  // 48 B at 0x2040 is a legal HMC size and fits its block from the extent
  // base, so no re-anchoring happens.
  auto in = sorted({req(0x2040, ReqType::kLoad, 16),
                    req(0x2050, ReqType::kLoad, 16),
                    req(0x2060, ReqType::kLoad, 16)});
  const DmcResult out = coalesce_payload(CoalescerConfig{}, in, 0);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].addr, 0x2040u);
  EXPECT_EQ(out.packets[0].bytes, 48u);
}

TEST(DmcPayload, PropertyPayloadNeverLost) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<CoalescerRequest> in;
    std::uint64_t total_payload = 0;
    const auto n = rng.between(1, 16);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto payload = static_cast<std::uint32_t>(8u << rng.below(3));
      in.push_back(req(rng.below(1 << 16), ReqType::kLoad, payload,
                       trial * 100 + i));
      total_payload += payload;
    }
    const DmcResult out = coalesce_payload(CoalescerConfig{}, sorted(in), 0);
    std::uint64_t out_payload = 0;
    std::uint64_t out_wire = 0;
    for (const auto& p : out.packets) {
      out_payload += p.payload_bytes();
      out_wire += p.bytes;
      EXPECT_LE(p.bytes, 256u);
      EXPECT_EQ(p.bytes % 16, 0u);
    }
    EXPECT_EQ(out_payload, total_payload);
    EXPECT_LE(out.packets.size(), in.size() + n);  // splits bounded
    (void)out_wire;
  }
}

}  // namespace
}  // namespace hmcc::coalescer
