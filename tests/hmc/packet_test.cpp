#include "hmc/packet.hpp"

#include <gtest/gtest.h>

namespace hmcc::hmc {
namespace {

TEST(Packet, CommandForAllLegalSizes) {
  for (std::uint32_t s = 16; s <= 128; s += 16) {
    auto rd = command_for(ReqType::kLoad, s);
    ASSERT_TRUE(rd.has_value()) << s;
    EXPECT_TRUE(is_read(*rd));
    EXPECT_EQ(payload_bytes(*rd), s);
    auto wr = command_for(ReqType::kStore, s);
    ASSERT_TRUE(wr.has_value()) << s;
    EXPECT_FALSE(is_read(*wr));
    EXPECT_EQ(payload_bytes(*wr), s);
  }
  EXPECT_EQ(payload_bytes(*command_for(ReqType::kLoad, 256)), 256u);
  EXPECT_EQ(payload_bytes(*command_for(ReqType::kStore, 256)), 256u);
}

TEST(Packet, CommandForRejectsIllegalSizes) {
  EXPECT_FALSE(command_for(ReqType::kLoad, 0).has_value());
  EXPECT_FALSE(command_for(ReqType::kLoad, 8).has_value());
  EXPECT_FALSE(command_for(ReqType::kLoad, 65).has_value());
  EXPECT_FALSE(command_for(ReqType::kLoad, 144).has_value());
  EXPECT_FALSE(command_for(ReqType::kLoad, 192).has_value());
  EXPECT_FALSE(command_for(ReqType::kLoad, 512).has_value());
}

TEST(Packet, RoundUpRequestSize) {
  EXPECT_EQ(round_up_request_size(1), 16u);
  EXPECT_EQ(round_up_request_size(16), 16u);
  EXPECT_EQ(round_up_request_size(17), 32u);
  EXPECT_EQ(round_up_request_size(128), 128u);
  EXPECT_EQ(round_up_request_size(129), 256u);  // 144..240 not representable
  EXPECT_EQ(round_up_request_size(256), 256u);
  EXPECT_EQ(round_up_request_size(0), 16u);
}

TEST(Packet, FlitArithmeticRead) {
  RequestPacket p{};
  p.cmd = *command_for(ReqType::kLoad, 16);
  // Paper §2.2.2: a 16 B load moves 48 B total (16 B req + 32 B resp).
  EXPECT_EQ(p.request_flits(), 1u);
  EXPECT_EQ(p.response_flits(), 2u);
  EXPECT_EQ(p.transferred_bytes(), 48u);
  EXPECT_EQ(p.control_bytes(), 32u);

  p.cmd = *command_for(ReqType::kLoad, 256);
  // Paper: "a single coalesced 256B load request only requires 288B".
  EXPECT_EQ(p.transferred_bytes(), 288u);
  EXPECT_EQ(p.control_bytes(), 32u);
}

TEST(Packet, FlitArithmeticWrite) {
  RequestPacket p{};
  p.cmd = *command_for(ReqType::kStore, 64);
  EXPECT_EQ(p.request_flits(), 5u);   // header + 4 data FLITs
  EXPECT_EQ(p.response_flits(), 1u);  // response is control-only
  EXPECT_EQ(p.transferred_bytes(), 96u);
  EXPECT_EQ(p.control_bytes(), 32u);
}

TEST(Packet, SixteenSmallLoadsVsOneCoalesced) {
  // The motivating example of §2.2.2: 16x16B loads vs 1x256B load.
  RequestPacket small{};
  small.cmd = *command_for(ReqType::kLoad, 16);
  EXPECT_EQ(16 * small.transferred_bytes(), 768u);
  EXPECT_EQ(16 * small.control_bytes(), 512u);
  RequestPacket big{};
  big.cmd = *command_for(ReqType::kLoad, 256);
  EXPECT_EQ(big.transferred_bytes(), 288u);
  EXPECT_EQ(big.control_bytes(), 32u);
}

TEST(Packet, BandwidthEfficiencyFigure1Endpoints) {
  // Paper Figure 1: 33.33% at 16 B rising to 88.89% at 256 B.
  EXPECT_NEAR(bandwidth_efficiency(16), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(bandwidth_efficiency(256), 8.0 / 9.0, 1e-9);
  EXPECT_NEAR(control_overhead(16), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(control_overhead(256), 1.0 / 9.0, 1e-9);
  // Monotone increasing in request size.
  double prev = 0.0;
  for (std::uint32_t s = 16; s <= 256; s += 16) {
    EXPECT_GT(bandwidth_efficiency(s), prev);
    prev = bandwidth_efficiency(s);
  }
}

TEST(Packet, CoalescingGainMatchesPaperNumbers) {
  // §2.2.2: 2.67x bandwidth-efficiency improvement, 15x control reduction.
  EXPECT_NEAR(bandwidth_efficiency(256) / bandwidth_efficiency(16), 8.0 / 3.0,
              1e-9);
  RequestPacket small{};
  small.cmd = *command_for(ReqType::kLoad, 16);
  RequestPacket big{};
  big.cmd = *command_for(ReqType::kLoad, 256);
  EXPECT_EQ(16 * small.control_bytes() / big.control_bytes(), 16u);
}

}  // namespace
}  // namespace hmcc::hmc
