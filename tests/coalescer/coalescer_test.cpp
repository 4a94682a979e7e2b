#include "coalescer/coalescer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace hmcc::coalescer {
namespace {

/// Harness: a fake memory that answers every issued packet after a fixed
/// latency, plus completion bookkeeping per token.
struct Harness {
  explicit Harness(CoalescerConfig cfg, Cycle mem_latency = 300)
      : coalescer(kernel, cfg,
                  [this, mem_latency](const CoalescedPacket& pkt) {
                    issued.push_back(pkt);
                    kernel.schedule(mem_latency, [this, id = pkt.id] {
                      coalescer.on_memory_response(id);
                    });
                  },
                  [this](Addr line, std::uint64_t token) {
                    completions.emplace_back(line, token);
                  }) {}

  Kernel kernel;
  MemoryCoalescer coalescer;
  std::vector<CoalescedPacket> issued;
  std::vector<std::pair<Addr, std::uint64_t>> completions;

  void submit(Addr addr, ReqType type = ReqType::kLoad,
              std::uint64_t token = 0) {
    CoalescerRequest r{};
    r.addr = addr;
    r.type = type;
    r.payload_bytes = 8;
    r.token = token;
    coalescer.submit(r);
  }
};

CoalescerConfig full_cfg() {
  CoalescerConfig cfg;  // both phases on, no bypass
  return cfg;
}

TEST(Coalescer, ContiguousWindowCoalescesTo256B) {
  Harness h(full_cfg());
  for (std::uint64_t i = 0; i < 16; ++i) {
    h.submit(0x1000 + i * 64, ReqType::kLoad, i);
  }
  h.kernel.run();
  // 16 contiguous lines = 1024 B = four 256 B packets.
  ASSERT_EQ(h.issued.size(), 4u);
  for (const auto& p : h.issued) EXPECT_EQ(p.bytes, 256u);
  EXPECT_EQ(h.completions.size(), 16u);
  EXPECT_TRUE(h.coalescer.idle());
  EXPECT_DOUBLE_EQ(h.coalescer.stats().coalescing_efficiency(), 0.75);
}

TEST(Coalescer, TimeoutFlushesPartialWindow) {
  Harness h(full_cfg());
  h.submit(0x1000, ReqType::kLoad, 1);
  h.submit(0x1040, ReqType::kLoad, 2);
  h.kernel.run();  // nothing else arrives; timeout must fire
  ASSERT_EQ(h.issued.size(), 1u);
  EXPECT_EQ(h.issued[0].bytes, 128u);
  EXPECT_EQ(h.completions.size(), 2u);
  // The flush happened only after the timeout elapsed.
  EXPECT_GE(h.issued[0].ready_at, full_cfg().timeout);
}

TEST(Coalescer, CompletionTokensAndLinesCorrect) {
  Harness h(full_cfg());
  std::map<std::uint64_t, Addr> expect;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Addr line = 0x8000 + ((i * 7) % 16) * 64;  // shuffled lines
    h.submit(line, ReqType::kLoad, 100 + i);
    expect[100 + i] = line;
  }
  h.kernel.run();
  ASSERT_EQ(h.completions.size(), 16u);
  for (const auto& [line, token] : h.completions) {
    ASSERT_TRUE(expect.count(token));
    EXPECT_EQ(line, expect[token]);
  }
}

TEST(Coalescer, StoresAndLoadsSeparated) {
  Harness h(full_cfg());
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.submit(0x2000 + i * 64, ReqType::kLoad, i);
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.submit(0x2000 + i * 64, ReqType::kStore, 50 + i);
  }
  h.kernel.run();
  ASSERT_EQ(h.issued.size(), 4u);  // 2 load packets + 2 store packets
  int loads = 0;
  int stores = 0;
  for (const auto& p : h.issued) {
    EXPECT_EQ(p.bytes, 256u);
    (p.type == ReqType::kLoad ? loads : stores)++;
  }
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(stores, 2);
}

TEST(Coalescer, SecondPhaseMergesInflightDuplicates) {
  Harness h(full_cfg());
  // First window: 4 lines -> one 256 B request, long memory latency.
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x3000 + i * 64, ReqType::kLoad, i);
  }
  // Let the timeout flush and the request get issued, then resubmit the
  // same lines while the first packet is still in flight.
  h.kernel.run_until(100);
  ASSERT_EQ(h.issued.size(), 1u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x3000 + i * 64, ReqType::kLoad, 10 + i);
  }
  h.kernel.run();
  // The second batch merged into the in-flight MSHR entry: still 1 request.
  EXPECT_EQ(h.issued.size(), 1u);
  EXPECT_EQ(h.completions.size(), 8u);
  EXPECT_GE(h.coalescer.mshrs().stats().full_merges, 1u);
}

TEST(Coalescer, ConventionalModeIssuesLineSizedRequests) {
  CoalescerConfig cfg = full_cfg();
  cfg.enable_dmc = false;
  Harness h(cfg);
  for (std::uint64_t i = 0; i < 16; ++i) {
    h.submit(0x4000 + i * 64, ReqType::kLoad, i);
  }
  h.kernel.run();
  ASSERT_EQ(h.issued.size(), 16u);
  for (const auto& p : h.issued) EXPECT_EQ(p.bytes, 64u);
  EXPECT_DOUBLE_EQ(h.coalescer.stats().coalescing_efficiency(), 0.0);
}

TEST(Coalescer, ConventionalModeStillMergesSameLine) {
  CoalescerConfig cfg = full_cfg();
  cfg.enable_dmc = false;
  Harness h(cfg);
  h.submit(0x5000, ReqType::kLoad, 1);
  h.submit(0x5000, ReqType::kLoad, 2);  // while the first is in flight
  h.kernel.run();
  EXPECT_EQ(h.issued.size(), 1u);
  EXPECT_EQ(h.completions.size(), 2u);
  EXPECT_GT(h.coalescer.stats().coalescing_efficiency(), 0.0);
}

TEST(Coalescer, DmcOnlyModeNeverMergesInMshrs) {
  CoalescerConfig cfg = full_cfg();
  cfg.enable_mshr_merge = false;
  Harness h(cfg);
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x6000 + i * 64, ReqType::kLoad, i);
  }
  h.kernel.run_until(100);
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x6000 + i * 64, ReqType::kLoad, 10 + i);
  }
  h.kernel.run();
  EXPECT_EQ(h.issued.size(), 2u);  // duplicate fetch, no phase-2 merge
  EXPECT_EQ(h.completions.size(), 8u);
}

TEST(Coalescer, BypassSkipsPipelineWhenIdle) {
  CoalescerConfig cfg = full_cfg();
  cfg.enable_bypass = true;
  Harness h(cfg);
  h.submit(0x7000, ReqType::kLoad, 1);
  // With bypass the request must be issued immediately (cycle 0), not after
  // the timeout.
  h.kernel.run_until(1);
  ASSERT_EQ(h.issued.size(), 1u);
  EXPECT_EQ(h.coalescer.stats().bypassed, 1u);
  h.kernel.run();
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(Coalescer, BypassDisengagesUnderLoad) {
  CoalescerConfig cfg = full_cfg();
  cfg.enable_bypass = true;
  cfg.num_mshrs = 2;
  Harness h(cfg, /*mem_latency=*/5000);
  // Two bypassed requests fill both MSHRs...
  h.submit(0x10000, ReqType::kLoad, 1);
  h.submit(0x20000, ReqType::kLoad, 2);
  // ...so later requests must take the coalescing path.
  for (std::uint64_t i = 0; i < 16; ++i) {
    h.submit(0x30000 + i * 64, ReqType::kLoad, 10 + i);
  }
  h.kernel.run();
  EXPECT_EQ(h.coalescer.stats().bypassed, 2u);
  EXPECT_EQ(h.completions.size(), 18u);
  // The 16 contiguous lines coalesced into 4 x 256 B.
  EXPECT_EQ(h.issued.size(), 2u + 4u);
}

TEST(Coalescer, CrqBackpressureEventuallyDrains) {
  CoalescerConfig cfg = full_cfg();
  cfg.num_mshrs = 2;  // tiny CRQ and MSHR file
  Harness h(cfg, /*mem_latency=*/2000);
  for (std::uint64_t i = 0; i < 64; ++i) {
    h.submit(0x40000 + i * 4096, ReqType::kLoad, i);  // uncoalescable
  }
  h.kernel.run();
  EXPECT_EQ(h.issued.size(), 64u);
  EXPECT_EQ(h.completions.size(), 64u);
  EXPECT_TRUE(h.coalescer.idle());
}

TEST(Coalescer, WaitingPacketMergesIntoEntryAllocatedAfterItsCheck) {
  // §4.2 in the middle of the CRQ: a packet whose merge check failed is
  // checked again once an entry of its type that overlaps it allocates.
  CoalescerConfig cfg = full_cfg();
  cfg.enable_dmc = false;
  cfg.num_mshrs = 3;
  Harness h(cfg, /*mem_latency=*/300);
  h.submit(0x10000, ReqType::kLoad, 1);
  h.submit(0x20000, ReqType::kLoad, 2);
  h.submit(0x30000, ReqType::kLoad, 3);  // the file is full
  h.submit(0x40000, ReqType::kLoad, 4);  // blocked CRQ head
  h.submit(0x50000, ReqType::kLoad, 5);  // fails its merge check
  h.submit(0x40000, ReqType::kLoad, 6);  // fails its merge check
  h.kernel.run();
  // The first fill lets 0x40000 allocate, 0x50000 becomes the blocked head,
  // and the second 0x40000 merges into the new entry in place.
  EXPECT_EQ(h.coalescer.stats().crq_merges, 1u);
  EXPECT_EQ(h.issued.size(), 5u);
  EXPECT_EQ(h.completions.size(), 6u);
  EXPECT_TRUE(h.coalescer.idle());
}

TEST(Coalescer, MergeInsideCheckedPrefixStillChecksTheNextPacket) {
  // The merge pass skips the packets whose last check failed (a prefix
  // right behind the head) unless a new entry overlaps them. When one of
  // them merges, the packets behind it move up, and the first packet that
  // was never checked must still be checked.
  CoalescerConfig cfg = full_cfg();
  cfg.enable_dmc = false;
  cfg.num_mshrs = 3;
  Harness h(cfg, /*mem_latency=*/300);
  h.submit(0x10000, ReqType::kLoad, 1);
  h.submit(0x20000, ReqType::kLoad, 2);
  h.submit(0x30000, ReqType::kLoad, 3);  // the file is full
  h.submit(0x40000, ReqType::kLoad, 4);  // blocked CRQ head
  h.submit(0x50000, ReqType::kLoad, 5);  // fails its merge check
  h.submit(0x40000, ReqType::kLoad, 6);  // fails its merge check
  h.submit(0x20000, ReqType::kLoad, 7);  // waits in the overflow buffer
  h.kernel.run();
  // The first fill lets 0x40000 allocate; 0x50000 becomes the blocked head.
  // The second 0x40000 merges into the new entry, and 0x20000, which just
  // came in from the overflow buffer, merges into the in-flight 0x20000.
  EXPECT_EQ(h.coalescer.stats().crq_merges, 2u);
  EXPECT_EQ(h.issued.size(), 5u);
  EXPECT_EQ(h.completions.size(), 7u);
  EXPECT_TRUE(h.coalescer.idle());
}

TEST(Coalescer, BlockedHeadIsRetriedAfterAMergeFillsItsEntry) {
  // The CRQ skips a rejected head's retry only while the MSHR file is
  // unchanged. A merge alone can turn the reject into an accept: once the
  // entry covering one of the head's lines runs out of subentries, the
  // head no longer splits and allocates as-is, with no fill in between.
  CoalescerConfig cfg = full_cfg();
  cfg.num_mshrs = 2;
  cfg.max_subentries = 2;
  Harness h(cfg, /*mem_latency=*/100000);
  // Entry X holds line 0x1080 (one subentry).
  h.submit(0x1080, ReqType::kLoad, 1);
  h.kernel.run_until(1000);
  ASSERT_EQ(h.issued.size(), 1u);
  // A 256 B packet over 0x1000-0x10FF: 0x1080 would attach to X, and the
  // rest (128 B at 0x1000, 64 B at 0x10C0) needs two entries with one free.
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x1000 + i * 64, ReqType::kLoad, 10 + i);
  }
  h.kernel.run_until(2000);
  ASSERT_EQ(h.issued.size(), 1u);
  ASSERT_EQ(h.coalescer.mshrs().stats().rejects_full, 1u);
  // A second load of 0x1080 merges into X from behind the head; X is full.
  h.submit(0x1080, ReqType::kLoad, 20);
  h.kernel.run_until(3000);
  ASSERT_EQ(h.coalescer.stats().crq_merges, 1u);
  ASSERT_EQ(h.issued.size(), 1u);
  // An unrelated batch drains the CRQ with no fill: the head now allocates
  // as-is, and the new packet waits behind it.
  h.submit(0x9000, ReqType::kLoad, 30);
  h.kernel.run_until(4000);
  ASSERT_EQ(h.issued.size(), 2u);
  EXPECT_EQ(h.issued[1].addr, 0x1000u);
  EXPECT_EQ(h.issued[1].bytes, 256u);
  h.kernel.run();
  EXPECT_EQ(h.completions.size(), 7u);
  EXPECT_TRUE(h.coalescer.idle());
}

TEST(Coalescer, FenceDrainsBeforeLaterRequests) {
  Harness h(full_cfg());
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x50000 + i * 64, ReqType::kLoad, i);
  }
  h.coalescer.submit_fence();
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.submit(0x60000 + i * 64, ReqType::kLoad, 10 + i);
  }
  h.kernel.run();
  EXPECT_EQ(h.completions.size(), 8u);
  EXPECT_EQ(h.coalescer.stats().fences, 1u);
  ASSERT_EQ(h.issued.size(), 2u);
  // All pre-fence completions strictly precede any post-fence issue.
  EXPECT_EQ(h.issued[0].addr, 0x50000u);
  EXPECT_EQ(h.issued[1].addr, 0x60000u);
  EXPECT_TRUE(h.coalescer.idle());
}

TEST(Coalescer, LatencyStatsPopulated) {
  Harness h(full_cfg());
  for (std::uint64_t i = 0; i < 32; ++i) {
    h.submit(0x70000 + i * 64, ReqType::kLoad, i);
  }
  h.kernel.run();
  const CoalescerStats& s = h.coalescer.stats();
  EXPECT_EQ(s.raw_requests, 32u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GT(s.dmc_latency.mean(), 0.0);
  EXPECT_GT(s.request_latency.mean(), 0.0);
  EXPECT_EQ(s.size_256, 8u);
}

TEST(Coalescer, PropertyRandomTrafficNeverLosesRequests) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    CoalescerConfig cfg = full_cfg();
    cfg.enable_bypass = trial % 2 == 0;
    cfg.num_mshrs = trial % 3 == 0 ? 4 : 16;
    Harness h(cfg, /*mem_latency=*/100 + rng.below(400));
    std::multiset<std::uint64_t> tokens;
    const std::uint64_t n = 200 + rng.below(300);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Addr addr = rng.below(512) * 64;
      const ReqType t = rng.chance(0.3) ? ReqType::kStore : ReqType::kLoad;
      h.submit(addr, t, i);
      tokens.insert(i);
      if (rng.chance(0.01)) h.coalescer.submit_fence();
    }
    h.kernel.run();
    std::multiset<std::uint64_t> done;
    for (const auto& [line, token] : h.completions) done.insert(token);
    EXPECT_EQ(done, tokens) << "trial " << trial;
    EXPECT_TRUE(h.coalescer.idle());
    EXPECT_LE(h.issued.size(), n);
  }
}

}  // namespace
}  // namespace hmcc::coalescer
