// Differential test of the line packetizer that both coalescing phases
// share (packetize_line_run): the DMC unit cutting a window's run, and the
// dynamic MSHRs re-packetizing a partial overlap's remainder, against a
// reference that groups a run's requests per line first and then cuts the
// lines.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coalescer/dmc_unit.hpp"
#include "coalescer/dynamic_mshr.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"

namespace hmcc::coalescer {
namespace {

struct Expected {
  Addr addr;
  std::uint32_t bytes;
  std::vector<std::uint64_t> tokens;  ///< constituent tokens, in order
};

/// Reference: @p run holds the requests of contiguous lines in ascending
/// address order. Group them per line, then cut the lines into chunks of
/// the largest power of two that fits the rest and the maximum packet.
std::vector<Expected> reference(const CoalescerConfig& cfg,
                                const std::vector<CoalescerRequest>& run) {
  std::vector<std::vector<CoalescerRequest>> lines;
  for (const CoalescerRequest& r : run) {
    const Addr line = align_down(r.addr, cfg.line_bytes);
    if (lines.empty() ||
        align_down(lines.back().front().addr, cfg.line_bytes) != line) {
      lines.emplace_back();
    }
    lines.back().push_back(r);
  }
  std::vector<Expected> out;
  std::size_t emitted = 0;
  while (emitted < lines.size()) {
    std::size_t chunk = 1;
    while (chunk * 2 <= lines.size() - emitted &&
           chunk * 2 <= cfg.max_lines_per_packet()) {
      chunk *= 2;
    }
    Expected e{align_down(lines[emitted].front().addr, cfg.line_bytes),
               static_cast<std::uint32_t>(chunk * cfg.line_bytes),
               {}};
    for (std::size_t l = emitted; l < emitted + chunk; ++l) {
      for (const CoalescerRequest& r : lines[l]) e.tokens.push_back(r.token);
    }
    out.push_back(std::move(e));
    emitted += chunk;
  }
  return out;
}

template <typename Packets>
void expect_packets(const Packets& got, const std::vector<Expected>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(got[p].addr, want[p].addr) << "packet " << p;
    EXPECT_EQ(got[p].bytes, want[p].bytes) << "packet " << p;
    std::vector<std::uint64_t> tokens;
    for (const CoalescerRequest& r : got[p].constituents) {
      tokens.push_back(r.token);
    }
    EXPECT_EQ(tokens, want[p].tokens) << "packet " << p;
  }
}

/// A random run inside one 256 B block: 1-4 contiguous lines, 1-4 requests
/// per line, one type, in ascending address order. With @p distinct_offsets
/// every request has its own byte address; otherwise a line's requests may
/// share one, and their order is the order they were made in.
std::vector<CoalescerRequest> random_run(Xoshiro256& rng, ReqType type,
                                         bool distinct_offsets,
                                         std::uint64_t& next_token) {
  const auto lines = 1 + rng.below(4);
  const auto first = rng.below(4 - lines + 1);
  const Addr block = (1 + rng.below(1024)) * 256;
  std::vector<CoalescerRequest> run;
  for (std::uint64_t l = first; l < first + lines; ++l) {
    const auto per_line = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < per_line; ++k) {
      // Ascending offsets inside the line, at most 56.
      const Addr offset =
          distinct_offsets ? 16 * k + 8 * rng.below(2) : 8 * (k / 2);
      CoalescerRequest r{};
      r.addr = block + l * 64 + offset;
      r.type = type;
      r.payload_bytes = 8;
      r.token = next_token++;
      run.push_back(r);
    }
  }
  return run;
}

TEST(Packetize, DmcRunsMatchLineGroupingReference) {
  const CoalescerConfig cfg;
  const DmcUnit dmc(cfg);
  Xoshiro256 rng(7);
  std::uint64_t next_token = 1;
  for (int trial = 0; trial < 2000; ++trial) {
    const ReqType type = rng.chance(0.5) ? ReqType::kStore : ReqType::kLoad;
    const std::vector<CoalescerRequest> run =
        random_run(rng, type, /*distinct_offsets=*/false, next_token);
    const DmcResult res = dmc.coalesce(run, 0);
    expect_packets(res.packets, reference(cfg, run));
    for (const CoalescedPacket& p : res.packets) EXPECT_EQ(p.type, type);
    if (HasFailure()) return;
  }
}

TEST(Packetize, PartialOverlapRemainderMatchesLineGroupingReference) {
  CoalescerConfig cfg;
  cfg.num_mshrs = 8;
  Xoshiro256 rng(11);
  std::uint64_t next_token = 1;
  std::size_t split_runs = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const ReqType type = rng.chance(0.5) ? ReqType::kStore : ReqType::kLoad;
    std::vector<CoalescerRequest> run;
    do {
      run = random_run(rng, type, /*distinct_offsets=*/true, next_token);
    } while (align_down(run.front().addr, Addr{64}) ==
             align_down(run.back().addr, Addr{64}));  // need >= 2 lines

    // An in-flight entry covers one line of the run.
    const Addr first_line = align_down(run.front().addr, Addr{64});
    const auto lines =
        (align_down(run.back().addr, Addr{64}) - first_line) / 64 + 1;
    const Addr covered = first_line + 64 * rng.below(lines);
    if (covered != first_line && covered != first_line + 64 * (lines - 1)) {
      ++split_runs;  // the remainder is two runs
    }
    DynamicMshrFile mshr(cfg);
    CoalescedPacket held{};
    held.addr = covered;
    held.bytes = 64;
    held.type = type;
    held.constituents.push_back(CoalescerRequest{});
    held.constituents.back().addr = covered;
    held.constituents.back().type = type;
    ASSERT_TRUE(mshr.try_insert(held).accepted);

    CoalescedPacket pkt{};
    pkt.addr = first_line;
    pkt.bytes = static_cast<std::uint32_t>(lines * 64);
    pkt.type = type;
    pkt.constituents = run;
    const auto res = mshr.try_insert(pkt);
    ASSERT_TRUE(res.accepted);
    EXPECT_EQ(mshr.stats().partial_merges, 1u);

    // The remainder: the uncovered lines, cut where the covered line was.
    std::vector<Expected> want;
    std::vector<CoalescerRequest> part;
    for (const CoalescerRequest& r : run) {
      if (align_down(r.addr, Addr{64}) == covered) {
        if (!part.empty()) {
          for (Expected& e : reference(cfg, part)) want.push_back(e);
          part.clear();
        }
        continue;
      }
      part.push_back(r);
    }
    if (!part.empty()) {
      for (Expected& e : reference(cfg, part)) want.push_back(e);
    }
    expect_packets(res.to_issue, want);
    if (HasFailure()) return;
  }
  EXPECT_GT(split_runs, 100u);
}

}  // namespace
}  // namespace hmcc::coalescer
