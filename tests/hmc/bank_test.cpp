#include "hmc/bank.hpp"

#include <gtest/gtest.h>

namespace hmcc::hmc {
namespace {

HmcConfig cfg_closed() {
  HmcConfig cfg;
  cfg.closed_page = true;
  return cfg;
}

HmcConfig cfg_open() {
  HmcConfig cfg;
  cfg.closed_page = false;
  return cfg;
}

TEST(Bank, ClosedPageSingleAccessTiming) {
  const HmcConfig cfg = cfg_closed();
  Bank bank(cfg);
  const BankAccessResult r = bank.access(/*row=*/5, /*bytes=*/64, /*at=*/100);
  EXPECT_EQ(r.start, 100u);
  EXPECT_FALSE(r.conflict);
  EXPECT_FALSE(r.row_hit);
  // ACT + CAS + two 32B column bursts.
  EXPECT_EQ(r.data_ready, 100 + cfg.t_rcd + cfg.t_cl + 2 * cfg.t_column_burst);
  // Auto-precharge honors tRAS.
  const Cycle pre_start = std::max(r.data_ready, r.start + cfg.t_ras);
  EXPECT_EQ(r.bank_free, pre_start + cfg.t_rp);
  EXPECT_EQ(bank.activations(), 1u);
}

TEST(Bank, ClosedPageSameRowStillReactivates) {
  // The paper's motivating pathology: repeated small reads of one block
  // open/close the same row every time under closed-page.
  const HmcConfig cfg = cfg_closed();
  Bank bank(cfg);
  Cycle t = 0;
  for (int i = 0; i < 16; ++i) {
    const BankAccessResult r = bank.access(7, 16, t);
    t = r.bank_free;
  }
  EXPECT_EQ(bank.activations(), 16u);
  EXPECT_EQ(bank.row_hits(), 0u);
}

TEST(Bank, ClosedPageBackToBackConflicts) {
  const HmcConfig cfg = cfg_closed();
  Bank bank(cfg);
  const BankAccessResult r1 = bank.access(1, 64, 0);
  const BankAccessResult r2 = bank.access(2, 64, 10);
  EXPECT_TRUE(r2.conflict);
  EXPECT_EQ(r2.start, r1.bank_free);
  EXPECT_EQ(bank.conflicts(), 1u);
}

TEST(Bank, OpenPageRowHitSkipsActivation) {
  const HmcConfig cfg = cfg_open();
  Bank bank(cfg);
  const BankAccessResult r1 = bank.access(3, 64, 0);
  EXPECT_FALSE(r1.row_hit);
  const BankAccessResult r2 = bank.access(3, 64, r1.bank_free);
  EXPECT_TRUE(r2.row_hit);
  EXPECT_EQ(r2.data_ready,
            r2.start + cfg.t_cl + 2 * cfg.t_column_burst);
  EXPECT_EQ(bank.activations(), 1u);
  EXPECT_EQ(bank.row_hits(), 1u);
}

TEST(Bank, OpenPageRowMissPaysPrecharge) {
  const HmcConfig cfg = cfg_open();
  Bank bank(cfg);
  const BankAccessResult r1 = bank.access(3, 64, 0);
  const BankAccessResult r2 = bank.access(4, 64, r1.bank_free);
  EXPECT_FALSE(r2.row_hit);
  EXPECT_EQ(r2.data_ready, r2.start + cfg.t_rp + cfg.t_rcd + cfg.t_cl +
                               2 * cfg.t_column_burst);
}

TEST(Bank, OpenPageConflictHonorsRasBeforePrecharge) {
  // Regression: the open-page row-conflict path used to start the precharge
  // the moment the bank was free, even if the victim row had not yet been
  // active for tRAS. With a tRAS larger than one access's occupancy the
  // precharge must wait for activation + tRAS.
  HmcConfig cfg = cfg_open();
  cfg.t_ras = 400;  // default access occupancy is ~110 cycles, so tRAS binds
  Bank bank(cfg);
  const BankAccessResult r1 = bank.access(3, 64, 0);
  ASSERT_LT(r1.bank_free, cfg.t_ras);  // the scenario under test
  const BankAccessResult r2 = bank.access(4, 64, r1.bank_free);
  // Row 3 was activated at cycle 0: precharge may not start before tRAS,
  // then PRE + ACT + CAS + burst.
  EXPECT_EQ(r2.data_ready, cfg.t_ras + cfg.t_rp + cfg.t_rcd + cfg.t_cl +
                               2 * cfg.t_column_burst);
}

TEST(Bank, OpenPageConflictRasAnchorsToLatestActivation) {
  // The tRAS floor tracks the CURRENT open row's activation, not the first:
  // after a conflict re-activates at a later cycle, the next conflict's
  // precharge floor moves with it.
  HmcConfig cfg = cfg_open();
  cfg.t_ras = 400;
  Bank bank(cfg);
  bank.access(3, 64, 0);                                  // ACT row 3 @ 0
  const BankAccessResult r2 = bank.access(4, 64, 50);     // ACT row 4 later
  const Cycle act2 = cfg.t_ras + cfg.t_rp;                // row 4's ACT cycle
  const BankAccessResult r3 = bank.access(5, 64, r2.bank_free);
  EXPECT_EQ(r3.data_ready, act2 + cfg.t_ras + cfg.t_rp + cfg.t_rcd +
                               cfg.t_cl + 2 * cfg.t_column_burst);
}

TEST(Bank, OpenPageConflictUnchangedWhenRasAlreadyElapsed) {
  // When the victim row has been open far longer than tRAS the floor never
  // binds and the conflict pays exactly PRE + ACT + CAS + burst — the
  // pre-fix timing, which the default configuration always hits.
  const HmcConfig cfg = cfg_open();
  Bank bank(cfg);
  bank.access(3, 64, 0);
  const Cycle late = 10 * cfg.t_ras;
  const BankAccessResult r = bank.access(4, 64, late);
  EXPECT_EQ(r.data_ready, late + cfg.t_rp + cfg.t_rcd + cfg.t_cl +
                              2 * cfg.t_column_burst);
}

TEST(Bank, LargerPayloadStreamsMoreColumns) {
  const HmcConfig cfg = cfg_closed();
  Bank b64(cfg);
  Bank b256(cfg);
  const Cycle d64 = b64.access(0, 64, 0).data_ready;
  const Cycle d256 = b256.access(0, 256, 0).data_ready;
  EXPECT_EQ(d256 - d64, (8 - 2) * cfg.t_column_burst);
}

TEST(Bank, OneCoalescedReadBeatsSixteenSmall) {
  // End-to-end check of the §2.2.1 claim at the bank level: one 256 B read
  // finishes far sooner than sixteen dependent 16 B reads of the same block.
  const HmcConfig cfg = cfg_closed();
  Bank serial(cfg);
  Cycle t = 0;
  for (int i = 0; i < 16; ++i) t = serial.access(0, 16, t).bank_free;
  Bank coalesced(cfg);
  const Cycle one = coalesced.access(0, 256, 0).data_ready;
  EXPECT_LT(one * 4, t);
}

}  // namespace
}  // namespace hmcc::hmc
