#include <gtest/gtest.h>

#include "hmc/link.hpp"
#include "hmc/vault.hpp"

namespace hmcc::hmc {
namespace {

HmcConfig cfg() { return HmcConfig{}; }

DecodedAddr at(std::uint32_t vault, std::uint32_t bank, std::uint64_t row) {
  DecodedAddr d{};
  d.vault = vault;
  d.bank = bank;
  d.row = row;
  return d;
}

TEST(Vault, ControllerPipelinesAcrossBanks) {
  const HmcConfig c = cfg();
  Vault v(c, 0);
  // Two requests to different banks arriving together: the second is only
  // delayed by the controller slot, not by the first bank's busy time.
  const auto r1 = v.serve(at(0, 0, 1), 64, 100);
  const auto r2 = v.serve(at(0, 1, 1), 64, 100);
  EXPECT_EQ(r2.data_ready - r1.data_ready, c.vault_ctrl_latency);
  EXPECT_FALSE(r2.bank_conflict);
  EXPECT_EQ(v.requests_served(), 2u);
}

TEST(Vault, SameBankSerializesWithConflict) {
  const HmcConfig c = cfg();
  Vault v(c, 3);
  const auto r1 = v.serve(at(3, 5, 1), 64, 0);
  const auto r2 = v.serve(at(3, 5, 2), 64, 0);
  EXPECT_TRUE(r2.bank_conflict);
  EXPECT_GT(r2.data_ready, r1.data_ready + c.t_rp);  // waited for row cycle
  EXPECT_EQ(v.bank_conflicts(), 1u);
  EXPECT_EQ(v.row_activations(), 2u);
}

TEST(Link, SerializesFlits) {
  const HmcConfig c = cfg();
  Link link(c);
  // A 17-FLIT 256 B read response occupies the channel for 17 cycles.
  const Cycle done1 = link.send_response(17, 100);
  EXPECT_EQ(done1, 100 + 17 * c.cycles_per_flit);
  // The next packet queues behind it even if it "arrives" earlier.
  const Cycle done2 = link.send_response(2, 50);
  EXPECT_EQ(done2, done1 + 2 * c.cycles_per_flit);
  EXPECT_EQ(link.response_flits_sent(), 19u);
}

TEST(Link, RequestAndResponseChannelsIndependent) {
  Link link(cfg());
  const Cycle req = link.send_request(10, 0);
  const Cycle resp = link.send_response(10, 0);
  EXPECT_EQ(req, resp);  // full duplex: no interference
  EXPECT_EQ(link.request_flits_sent(), 10u);
  EXPECT_EQ(link.response_flits_sent(), 10u);
}

TEST(Link, IdleChannelStartsImmediately) {
  Link link(cfg());
  link.send_request(4, 0);
  // After the channel drains, a later packet starts at its arrival time.
  const Cycle done = link.send_request(1, 1000);
  EXPECT_EQ(done, 1000 + cfg().cycles_per_flit);
}

}  // namespace
}  // namespace hmcc::hmc
