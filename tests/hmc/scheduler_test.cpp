// Vault scheduling policies: unit tests of the pick ranking (FR-FCFS
// ordering, starvation cap, batch boundaries) plus system-level
// differentials — sched=fcfs must be byte-identical to the pre-queue
// baseline for every queue depth and seed, FR-FCFS must drain everything it
// admits and recover at least FCFS's row hits on a row-local workload.
#include "hmc/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hmc/bank.hpp"
#include "hmc/vault.hpp"
#include "system/runner.hpp"

namespace hmcc::hmc {
namespace {

HmcConfig open_page_cfg() {
  HmcConfig cfg;
  cfg.closed_page = false;
  return cfg;
}

VaultRequest req(std::uint32_t bank, std::uint64_t row, Cycle arrival,
                 std::uint64_t order) {
  VaultRequest r{};
  r.d.bank = bank;
  r.d.row = row;
  r.bytes = 64;
  r.arrival = arrival;
  r.order = order;
  return r;
}

std::unique_ptr<VaultScheduler> make_sched(SchedPolicy p,
                                           std::uint32_t starve_cap = 8) {
  HmcConfig cfg = open_page_cfg();
  cfg.sched = p;
  cfg.sched_starve_cap = starve_cap;
  return make_vault_scheduler(cfg);
}

TEST(Scheduler, FcfsAlwaysPicksOldest) {
  const HmcConfig cfg = open_page_cfg();
  std::vector<Bank> banks(2, Bank(cfg));
  banks[0].access(5, 64, 0);  // open row 5 on bank 0
  std::vector<VaultRequest> queue = {req(1, 9, 0, 2), req(0, 5, 0, 1)};
  const BankView view{&banks, 1000};
  auto sched = make_sched(SchedPolicy::kFcfs);
  const SchedPick p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 1u);  // oldest, despite bank 0's open row
}

TEST(Scheduler, FrfcfsPrefersRowHitOverOldest) {
  const HmcConfig cfg = open_page_cfg();
  std::vector<Bank> banks(2, Bank(cfg));
  banks[0].access(5, 64, 0);  // open row 5 on bank 0
  std::vector<VaultRequest> queue = {req(1, 9, 0, 1), req(0, 5, 0, 2)};
  const BankView view{&banks, 1000};
  auto sched = make_sched(SchedPolicy::kFrfcfs);
  const SchedPick p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 2u);  // the row hit, not the oldest
  EXPECT_TRUE(p.row_hit);
  EXPECT_EQ(queue[0].bypassed, 1u);  // the bypassed oldest was charged
}

TEST(Scheduler, FrfcfsIgnoresFutureArrivals) {
  const HmcConfig cfg = open_page_cfg();
  std::vector<Bank> banks(2, Bank(cfg));
  banks[0].access(5, 64, 0);
  // The row hit has not arrived yet at cycle 10; the miss has.
  std::vector<VaultRequest> queue = {req(1, 9, 0, 1), req(0, 5, 500, 2)};
  const BankView view{&banks, 10};
  auto sched = make_sched(SchedPolicy::kFrfcfs);
  const SchedPick p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 1u);
  EXPECT_EQ(queue[0].bypassed, 0u);  // nothing bypassed it
}

TEST(Scheduler, FrfcfsStarvationCapForcesOldest) {
  const HmcConfig cfg = open_page_cfg();
  std::vector<Bank> banks(2, Bank(cfg));
  banks[0].access(5, 64, 0);
  // Entry 1 (bank 1, row miss) is oldest; entry 2 is a perpetual row hit.
  std::vector<VaultRequest> queue = {req(1, 9, 0, 1), req(0, 5, 0, 2)};
  const BankView view{&banks, 1000};
  const std::uint32_t cap = 3;
  auto sched = make_sched(SchedPolicy::kFrfcfs, cap);
  for (std::uint32_t i = 0; i < cap; ++i) {
    const SchedPick p = sched->pick(queue, view);
    EXPECT_EQ(queue[p.index].order, 2u) << i;
    EXPECT_FALSE(p.starved) << i;
  }
  EXPECT_EQ(queue[0].bypassed, cap);
  // At the cap the oldest goes next regardless of the open row.
  const SchedPick p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 1u);
  EXPECT_TRUE(p.starved);
  // The bypass counter never grows past the point where it forces service.
  EXPECT_EQ(queue[0].bypassed, cap);
}

TEST(Scheduler, BatchDrainsCurrentBatchBeforeYoungerEntries) {
  const HmcConfig cfg = open_page_cfg();
  std::vector<Bank> banks(2, Bank(cfg));
  banks[0].access(5, 64, 0);
  auto sched = make_sched(SchedPolicy::kBatch);
  // First pick forms the batch {1, 2}.
  std::vector<VaultRequest> queue = {req(1, 9, 0, 1), req(1, 8, 0, 2)};
  const BankView view{&banks, 1000};
  SchedPick p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 1u);
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(p.index));
  // A younger row hit arrives: the open batch still goes first.
  queue.push_back(req(0, 5, 0, 3));
  p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 2u);
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(p.index));
  // Batch drained: the next batch is everything queued now.
  p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 3u);
  EXPECT_TRUE(p.row_hit);
}

TEST(Scheduler, BatchPicksRowHitFirstInsideBatch) {
  const HmcConfig cfg = open_page_cfg();
  std::vector<Bank> banks(2, Bank(cfg));
  banks[0].access(5, 64, 0);
  auto sched = make_sched(SchedPolicy::kBatch);
  std::vector<VaultRequest> queue = {req(1, 9, 0, 1), req(0, 5, 0, 2)};
  const BankView view{&banks, 1000};
  const SchedPick p = sched->pick(queue, view);
  EXPECT_EQ(queue[p.index].order, 2u);
  EXPECT_TRUE(p.row_hit);
}

TEST(Scheduler, VaultDeferredDrainMatchesPolicyAndCountsStats) {
  // Drive a vault directly through the deferred interface: two requests to
  // one bank where the second is a row hit; FR-FCFS serves the hit first.
  HmcConfig cfg = open_page_cfg();
  cfg.sched = SchedPolicy::kFrfcfs;
  Vault vault(cfg, 0);
  // Open row 5 by serving one request through the queue.
  vault.enqueue(DecodedAddr{0, 0, 5, 0, 0}, 64, 0, 1);
  EXPECT_FALSE(vault.queue_empty());
  const VaultServed first = vault.serve_next(vault.next_ready());
  EXPECT_EQ(first.token, 1u);
  // Queue a miss (older) and a hit (younger); the hit is served first.
  const Cycle now = first.result.data_ready + 1;
  vault.enqueue(DecodedAddr{0, 0, 9, 0, 0}, 64, now, 2);
  vault.enqueue(DecodedAddr{0, 0, 5, 0, 0}, 64, now, 3);
  const VaultServed second = vault.serve_next(vault.next_ready());
  EXPECT_EQ(second.token, 3u);
  EXPECT_TRUE(second.result.row_hit);
  EXPECT_EQ(vault.sched_row_hit_picks(), 1u);
  const VaultServed third = vault.serve_next(vault.next_ready());
  EXPECT_EQ(third.token, 2u);
  EXPECT_TRUE(vault.queue_empty());
  EXPECT_EQ(vault.requests_served(), 3u);
}

}  // namespace
}  // namespace hmcc::hmc

namespace hmcc::system {
namespace {

trace::MultiTrace random_trace(std::uint64_t seed, std::uint32_t cores,
                               std::uint64_t records) {
  Xoshiro256 rng(seed);
  trace::MultiTrace mt;
  mt.per_core.resize(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    for (std::uint64_t i = 0; i < records; ++i) {
      const double roll = rng.uniform();
      Addr addr;
      if (roll < 0.4) {
        addr = (1ULL << 30) + (i * cores + c) * 64;
      } else if (roll < 0.7) {
        addr = (1ULL << 31) + rng.below(1 << 18) * 8;
      } else {
        addr = (1ULL << 32) + rng.below(1 << 14) * 4096 + rng.below(64);
      }
      const auto size = static_cast<std::uint32_t>(1u << rng.below(4));
      if (rng.chance(0.3)) {
        mt.per_core[c].push_back(trace::TraceRecord::store(addr, size));
      } else {
        mt.per_core[c].push_back(trace::TraceRecord::load(addr, size));
      }
    }
  }
  return mt;
}

struct Observed {
  SystemReport report;
  std::string metrics;
};

Observed observe(SystemConfig cfg, const trace::MultiTrace& mt) {
  System sys(std::move(cfg));
  Observed o;
  o.report = sys.run(mt);
  if (const obs::MetricsRegistry* reg = sys.metrics()) {
    o.metrics = reg->render_prometheus();
  }
  return o;
}

SystemConfig base_cfg(std::uint32_t cores) {
  SystemConfig cfg = paper_system_config();
  cfg.hierarchy.num_cores = cores;
  cfg.obs.metrics = true;
  cfg.obs.sample_interval = 500;
  apply_mode(cfg, CoalescerMode::kFull);
  return cfg;
}

TEST(SchedulerSystem, FcfsIsByteIdenticalToPreQueueBaseline) {
  // The FCFS policy routes every request through the queue + pick machinery;
  // the result must be byte-identical to the historical immediate-service
  // controller (the default config), for any queue depth and seed.
  for (const std::uint64_t seed : {11ULL, 23ULL}) {
    const auto mt = random_trace(seed, 3, 600);
    const Observed baseline = observe(base_cfg(3), mt);
    ASSERT_TRUE(baseline.report.drained) << seed;
    for (const std::uint32_t depth : {1u, 8u, 128u}) {
      SystemConfig cfg = base_cfg(3);
      cfg.hmc.sched = hmc::SchedPolicy::kFcfs;
      cfg.hmc.vault_queue_depth = depth;
      const Observed fcfs = observe(cfg, mt);
      const std::string what =
          "seed " + std::to_string(seed) + " depth " + std::to_string(depth);
      EXPECT_EQ(fcfs.report.runtime, baseline.report.runtime) << what;
      EXPECT_EQ(fcfs.metrics, baseline.metrics) << what;
    }
  }
}

TEST(SchedulerSystem, FrfcfsDrainsEverythingAndRecoversRowHits) {
  // FR-FCFS invariants on a row-local open-page workload: the run drains
  // (every admitted request is served — no lost or starved-forever entry),
  // and policy reordering recovers at least as many row hits as FCFS.
  workloads::WorkloadParams params;
  params.num_cores = 4;
  params.accesses_per_core = 1500;
  SystemConfig fcfs_cfg = base_cfg(4);
  fcfs_cfg.hmc.closed_page = false;
  SystemConfig frfcfs_cfg = fcfs_cfg;
  frfcfs_cfg.hmc.sched = hmc::SchedPolicy::kFrfcfs;

  const RunResult fcfs = run_workload("sg", fcfs_cfg, params);
  const RunResult frfcfs = run_workload("sg", frfcfs_cfg, params);
  ASSERT_TRUE(fcfs.report.drained);
  ASSERT_TRUE(frfcfs.report.drained);
  // Identical traffic enters the cube in both runs...
  EXPECT_EQ(frfcfs.report.cpu_accesses, fcfs.report.cpu_accesses);
  // ...and everything submitted was served on the wire.
  EXPECT_EQ(frfcfs.report.hmc.reads + frfcfs.report.hmc.writes,
            frfcfs.report.memory_requests);
  EXPECT_GE(frfcfs.report.hmc.row_hits, fcfs.report.hmc.row_hits);
  EXPECT_GE(frfcfs.report.hmc.sched_row_hit_picks,
            fcfs.report.hmc.sched_row_hit_picks);
}

TEST(SchedulerSystem, StarveCapOneDegradesTowardFcfsOrder) {
  // With the tightest cap every bypass immediately forces the oldest entry,
  // so starved serves appear whenever reordering happens at all, and the
  // run still drains.
  workloads::WorkloadParams params;
  params.num_cores = 4;
  params.accesses_per_core = 1000;
  SystemConfig cfg = base_cfg(4);
  cfg.hmc.closed_page = false;
  cfg.hmc.sched = hmc::SchedPolicy::kFrfcfs;
  cfg.hmc.sched_starve_cap = 1;
  const RunResult r = run_workload("sg", cfg, params);
  ASSERT_TRUE(r.report.drained);
  EXPECT_EQ(r.report.hmc.reads + r.report.hmc.writes,
            r.report.memory_requests);
}

TEST(SchedulerSystem, TinyQueueForcesOverflowServesAndStillDrains) {
  // vault_queue=1 exercises the forced-serve-on-full path on every
  // admission; the run must stay lossless under both deferred policies.
  const auto mt = random_trace(3, 2, 400);
  for (const hmc::SchedPolicy policy :
       {hmc::SchedPolicy::kFrfcfs, hmc::SchedPolicy::kBatch}) {
    SystemConfig cfg = base_cfg(2);
    cfg.hmc.closed_page = false;
    cfg.hmc.sched = policy;
    cfg.hmc.vault_queue_depth = 1;
    const Observed r = observe(cfg, mt);
    ASSERT_TRUE(r.report.drained) << to_string(policy);
    EXPECT_EQ(r.report.hmc.reads + r.report.hmc.writes,
              r.report.memory_requests)
        << to_string(policy);
  }
}

}  // namespace
}  // namespace hmcc::system
