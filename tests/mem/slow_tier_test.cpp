// SlowTierDevice timing unit tests: the capacity tier's row-buffer state
// machine must charge exactly the configured activate/column/precharge
// costs, interleave rows round-robin across channels, and fit the slow-tier
// term of system::worst_case_event_delay() (which sizes the event ring).
#include "mem/slow_tier.hpp"

#include <gtest/gtest.h>

#include "system/runner.hpp"

namespace hmcc::mem {
namespace {

SlowTierConfig small_cfg() {
  SlowTierConfig c;
  c.num_channels = 2;
  c.ctrl_latency = 10;
  c.t_rcd = 20;
  c.t_cl = 30;
  c.t_rp = 40;
  c.t_column_burst = 4;
  c.row_bytes = 1024;
  return c;
}

TEST(SlowTier, ColdAccessPaysActivateColumnAndBurst) {
  Kernel kernel;
  SlowTierDevice dev(kernel, small_cfg());
  Cycle done_at = 0;
  dev.submit(0, 64, ReqType::kLoad, [&] { done_at = kernel.now(); });
  EXPECT_EQ(dev.outstanding(), 1u);
  kernel.run();
  // ctrl(10) + activate(20) + column(30) + 2 columns x burst(4).
  EXPECT_EQ(done_at, Cycle{10 + 20 + 30 + 2 * 4});
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().row_activations, 1u);
  EXPECT_EQ(dev.stats().row_hits, 0u);
  EXPECT_EQ(dev.outstanding(), 0u);
}

TEST(SlowTier, OpenRowHitSkipsActivate) {
  Kernel kernel;
  SlowTierDevice dev(kernel, small_cfg());
  dev.submit(0, 64, ReqType::kLoad, [] {});
  kernel.run();
  const Cycle before = kernel.now();
  Cycle done_at = 0;
  dev.submit(512, 64, ReqType::kLoad, [&] { done_at = kernel.now(); });
  kernel.run();
  // Same 1 KiB row on the same channel: only ctrl + column + burst.
  EXPECT_EQ(done_at - before, Cycle{10 + 30 + 2 * 4});
  EXPECT_EQ(dev.stats().row_hits, 1u);
}

TEST(SlowTier, RowConflictPaysPrechargeThenActivate) {
  Kernel kernel;
  SlowTierDevice dev(kernel, small_cfg());
  dev.submit(0, 64, ReqType::kLoad, [] {});
  kernel.run();
  const Cycle before = kernel.now();
  Cycle done_at = 0;
  // global_row 2 lands on channel 0 again (2 % 2) with a different row.
  dev.submit(2048, 64, ReqType::kStore, [&] { done_at = kernel.now(); });
  kernel.run();
  EXPECT_EQ(done_at - before, Cycle{10 + 40 + 20 + 30 + 2 * 4});
  EXPECT_EQ(dev.stats().row_conflicts, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(SlowTier, ChannelsServeDisjointRowsInParallel) {
  Kernel kernel;
  SlowTierDevice dev(kernel, small_cfg());
  // global_row 0 -> channel 0, global_row 1 -> channel 1: submitted in the
  // same cycle, both complete at the unloaded single-access latency.
  Cycle a = 0;
  Cycle b = 0;
  dev.submit(0, 64, ReqType::kLoad, [&] { a = kernel.now(); });
  dev.submit(1024, 64, ReqType::kLoad, [&] { b = kernel.now(); });
  kernel.run();
  EXPECT_EQ(a, Cycle{68});
  EXPECT_EQ(b, Cycle{68});

  // Same channel instead: the second access queues behind busy_until.
  Kernel k2;
  SlowTierDevice dev2(k2, small_cfg());
  Cycle c = 0;
  Cycle d = 0;
  dev2.submit(0, 64, ReqType::kLoad, [&] { c = k2.now(); });
  dev2.submit(512, 64, ReqType::kLoad, [&] { d = k2.now(); });
  k2.run();
  EXPECT_EQ(c, Cycle{68});
  EXPECT_EQ(d, Cycle{68 + 30 + 2 * 4});  // row hit, but serialized
}

TEST(SlowTier, UnloadedLatencyNeverExceedsWorstCaseBound) {
  // Under mem=hybrid the event-ring budget adds one page-sized slow-tier
  // transfer; the costliest routine slow access, a page fill that conflicts
  // with its channel's open row, must fit in that term.
  system::SystemConfig cfg = system::paper_system_config();
  cfg.mem.backend = BackendKind::kHybrid;
  system::SystemConfig bare = cfg;
  bare.mem.backend = BackendKind::kHmc;
  const Cycle slow_term = system::worst_case_event_delay(cfg) -
                          system::worst_case_event_delay(bare);

  Kernel kernel;
  SlowTierDevice dev(kernel, cfg.mem.slow);
  dev.submit(0, 64, ReqType::kLoad, [] {});
  kernel.run();
  const Cycle before = kernel.now();
  Cycle done_at = 0;
  // Two rows further on: the same channel, a different row.
  const Addr conflict = 2ULL * cfg.mem.slow.row_bytes;
  dev.submit(conflict, cfg.mem.page_bytes, ReqType::kLoad,
             [&] { done_at = kernel.now(); });
  kernel.run();
  ASSERT_EQ(dev.stats().row_conflicts, 1u);
  EXPECT_LE(done_at - before, slow_term);
}

}  // namespace
}  // namespace hmcc::mem
