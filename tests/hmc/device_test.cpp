#include "hmc/device.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace hmcc::hmc {
namespace {

RequestPacket make_read(ReqId id, Addr addr, std::uint32_t bytes) {
  RequestPacket p{};
  p.id = id;
  p.addr = addr;
  p.cmd = *command_for(ReqType::kLoad, bytes);
  return p;
}

RequestPacket make_write(ReqId id, Addr addr, std::uint32_t bytes) {
  RequestPacket p{};
  p.id = id;
  p.addr = addr;
  p.cmd = *command_for(ReqType::kStore, bytes);
  return p;
}

TEST(HmcDevice, SingleReadCompletesWithPlausibleLatency) {
  Kernel kernel;
  HmcDevice dev(kernel, HmcConfig{});
  bool done = false;
  ResponsePacket got{};
  dev.submit(make_read(1, 0x1000, 64), [&](const ResponsePacket& r) {
    done = true;
    got = r;
  });
  kernel.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.id, 1u);
  // An unloaded random access should land around 60-120 ns at 3.3 GHz; the
  // paper quotes >= 100 ns end-to-end including the processor-side path.
  EXPECT_GT(got.latency(), 200u);   // > ~60 ns
  EXPECT_LT(got.latency(), 1200u);  // < ~360 ns
  EXPECT_EQ(dev.outstanding(), 0u);
}

TEST(HmcDevice, WireAccountingMatchesPacketMath) {
  Kernel kernel;
  HmcDevice dev(kernel, HmcConfig{});
  int completions = 0;
  auto cb = [&](const ResponsePacket&) { ++completions; };
  dev.submit(make_read(1, 0, 64), cb);
  dev.submit(make_write(2, 256, 128), cb);
  kernel.run();
  EXPECT_EQ(completions, 2);
  const HmcStats s = dev.stats();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.payload_bytes, 64u + 128u);
  EXPECT_EQ(s.transferred_bytes, (64u + 32u) + (128u + 32u));
  EXPECT_EQ(s.control_bytes, 64u);
  EXPECT_NEAR(s.bandwidth_efficiency(), 192.0 / 256.0, 1e-12);
}

TEST(HmcDevice, CoalescedReadFasterThanSixteenSmall) {
  // The paper's §2.2 end-to-end claim at device level.
  Kernel k1;
  HmcDevice dev1(k1, HmcConfig{});
  int pending = 16;
  for (int i = 0; i < 16; ++i) {
    dev1.submit(make_read(static_cast<ReqId>(i), 16u * static_cast<Addr>(i), 16),
                [&](const ResponsePacket&) { --pending; });
  }
  const Cycle small_total = k1.run();
  EXPECT_EQ(pending, 0);

  Kernel k2;
  HmcDevice dev2(k2, HmcConfig{});
  dev2.submit(make_read(99, 0, 256), [](const ResponsePacket&) {});
  const Cycle big_total = k2.run();
  EXPECT_LT(big_total, small_total);

  // And the transferred volume drops from 768 B to 288 B.
  EXPECT_EQ(dev1.stats().transferred_bytes, 768u);
  EXPECT_EQ(dev2.stats().transferred_bytes, 288u);
}

TEST(HmcDevice, SameBankRequestsSerializeDifferentVaultsParallel) {
  // Two reads of the same block target one bank: the second conflicts.
  Kernel k1;
  HmcDevice dev1(k1, HmcConfig{});
  Cycle first = 0;
  Cycle second = 0;
  dev1.submit(make_read(1, 0, 64),
              [&](const ResponsePacket& r) { first = r.completed_at; });
  dev1.submit(make_read(2, 64, 64),
              [&](const ResponsePacket& r) { second = r.completed_at; });
  k1.run();
  EXPECT_GT(dev1.stats().bank_conflicts, 0u);
  const Cycle same_bank_span = std::max(first, second);

  // Two reads striped across vaults overlap almost entirely.
  Kernel k2;
  HmcDevice dev2(k2, HmcConfig{});
  Cycle a = 0;
  Cycle b = 0;
  dev2.submit(make_read(1, 0, 64),
              [&](const ResponsePacket& r) { a = r.completed_at; });
  dev2.submit(make_read(2, 256, 64),
              [&](const ResponsePacket& r) { b = r.completed_at; });
  k2.run();
  EXPECT_EQ(dev2.stats().bank_conflicts, 0u);
  EXPECT_LT(std::max(a, b), same_bank_span);
}

TEST(HmcDevice, ManyRandomRequestsAllComplete) {
  Kernel kernel;
  HmcConfig cfg;
  HmcDevice dev(kernel, cfg);
  Xoshiro256 rng(7);
  const int kN = 2000;
  int completions = 0;
  for (int i = 0; i < kN; ++i) {
    const std::uint32_t bytes = 16u << rng.below(4);  // 16..128
    Addr addr = rng.below(cfg.capacity_bytes);
    addr = align_down(addr, cfg.block_bytes);  // keep inside one block
    dev.submit(make_read(static_cast<ReqId>(i), addr, bytes),
               [&](const ResponsePacket&) { ++completions; });
  }
  kernel.run();
  EXPECT_EQ(completions, kN);
  EXPECT_EQ(dev.outstanding(), 0u);
  EXPECT_GT(dev.stats().latency.mean(), 0.0);
}

TEST(HmcDevice, ResponsesOfEqualPacketsAreFifoPerVault) {
  Kernel kernel;
  HmcDevice dev(kernel, HmcConfig{});
  std::vector<ReqId> order;
  for (int i = 0; i < 4; ++i) {
    dev.submit(make_read(static_cast<ReqId>(i), 0x10000, 64),
               [&order](const ResponsePacket& r) { order.push_back(r.id); });
  }
  kernel.run();
  EXPECT_EQ(order, (std::vector<ReqId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace hmcc::hmc
