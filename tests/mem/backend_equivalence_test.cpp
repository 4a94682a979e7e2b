// Differential pins across the memory-backend seam:
//  * mem=hybrid with an unconfigured fast tier is the bare HMC — same
//    report, same metrics text modulo the hybrid's own hmcc_mem_ families;
//  * scheme=migrate with an unreachable hot_threshold degenerates to the
//    static split;
//  * turning the coalescer on/off under scheme=migrate changes only the
//    intended counters, and every demand packet lands in exactly one tier;
//  * the default mem=hmc run still renders the exact Prometheus text the
//    pre-seam simulator produced (fixtures in tests/golden/preseam).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"

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
        addr = (1ULL << 30) + (i * cores + c) * 64;  // cyclic-sequential
      } else if (roll < 0.7) {
        addr = (1ULL << 31) + rng.below(1 << 16) * 8;  // shared random
      } else {
        addr = (1ULL << 32) + rng.below(1 << 12) * 4096 + rng.below(64);
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

/// Drop every line mentioning a metric family with the given prefix
/// (HELP/TYPE headers and samples all contain the family name).
std::string strip_families(const std::string& text, const std::string& pre) {
  std::istringstream in(text);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find(pre) != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(BackendSeam, DegenerateHybridIsTheBareHmc) {
  const auto mt = random_trace(11, 4, 800);
  const Observed hmc = observe(base_cfg(4), mt);
  ASSERT_TRUE(hmc.report.drained);

  SystemConfig cfg = base_cfg(4);
  cfg.mem.backend = mem::BackendKind::kHybrid;  // fast_pages stays 0
  const Observed hyb = observe(cfg, mt);
  ASSERT_TRUE(hyb.report.drained);

  EXPECT_EQ(hyb.report.runtime, hmc.report.runtime);
  EXPECT_EQ(hyb.report.memory_requests, hmc.report.memory_requests);
  EXPECT_EQ(hyb.report.hmc.transferred_bytes, hmc.report.hmc.transferred_bytes);
  EXPECT_EQ(hyb.report.hmc.row_hits, hmc.report.hmc.row_hits);
  EXPECT_EQ(hyb.report.mem_tier.slow_accesses, 0u);
  EXPECT_EQ(hyb.report.mem_tier.fast_hits, hyb.report.memory_requests);
  // Identical text once the hybrid's own families are removed — the shared
  // families (hmcc_hmc_*, coalescer, caches, system) must not move at all.
  EXPECT_EQ(strip_families(hyb.metrics, "hmcc_mem_"), hmc.metrics);
}

TEST(BackendSeam, UnreachableHotThresholdDegeneratesToStatic) {
  const auto mt = random_trace(23, 3, 700);
  SystemConfig mig = base_cfg(3);
  mig.mem.backend = mem::BackendKind::kHybrid;
  mig.mem.scheme = mem::HybridScheme::kMigrate;
  mig.mem.fast_pages = 64;
  mig.mem.tag_ways = 8;
  mig.mem.hot_threshold = 1u << 20;  // nothing is ever this hot
  const Observed m = observe(mig, mt);
  ASSERT_TRUE(m.report.drained);
  EXPECT_EQ(m.report.mem_tier.promotions, 0u);
  EXPECT_EQ(m.report.mem_tier.migration_packets, 0u);

  SystemConfig sta = mig;
  sta.mem.scheme = mem::HybridScheme::kStatic;
  const Observed s = observe(sta, mt);
  ASSERT_TRUE(s.report.drained);

  EXPECT_EQ(m.report.runtime, s.report.runtime);
  EXPECT_EQ(m.report.cpu_accesses, s.report.cpu_accesses);
  EXPECT_EQ(m.report.memory_requests, s.report.memory_requests);
  EXPECT_EQ(m.report.mem_tier.fast_hits, s.report.mem_tier.fast_hits);
  EXPECT_EQ(m.report.mem_tier.slow_accesses, s.report.mem_tier.slow_accesses);
}

TEST(BackendSeam, CoalescingUnderMigrateChangesOnlyIntendedCounters) {
  const auto mt = random_trace(37, 4, 900);
  auto tiered = [](CoalescerMode mode) {
    SystemConfig cfg = base_cfg(4);
    cfg.mem.backend = mem::BackendKind::kHybrid;
    cfg.mem.scheme = mem::HybridScheme::kMigrate;
    cfg.mem.fast_pages = 256;
    cfg.mem.hot_threshold = 4;
    cfg.mem.migrate_epoch = 20000;
    apply_mode(cfg, mode);
    return cfg;
  };
  const Observed conv = observe(tiered(CoalescerMode::kConventional), mt);
  const Observed full = observe(tiered(CoalescerMode::kFull), mt);
  ASSERT_TRUE(conv.report.drained);
  ASSERT_TRUE(full.report.drained);

  // The replayed access stream is untouched by the coalescing mode. (LLC
  // miss/writeback counts are NOT pinned: fills land at completion time,
  // so coalescing legitimately shifts eviction order by a few lines.)
  EXPECT_EQ(full.report.cpu_accesses, conv.report.cpu_accesses);
  // The memory side is where it is allowed (and expected) to differ.
  EXPECT_LE(full.report.memory_requests, conv.report.memory_requests);
  // Every demand packet lands in exactly one tier, in both modes.
  for (const Observed* o : {&conv, &full}) {
    EXPECT_EQ(o->report.mem_tier.fast_hits + o->report.mem_tier.slow_accesses,
              o->report.memory_requests);
  }
}

TEST(BackendSeam, DefaultBackendMatchesPreSeamPrometheusFixtures) {
  // The fixtures were rendered by the pre-seam simulator via
  //   trace_workbench cmd=run workload=W seed=S accesses=2500 cores=4 \
  //     metrics=1 sample_interval=700 metrics_out=...
  // Reproducing them bit-for-bit pins every shared stat family — names,
  // help strings, ordering, and values — across the refactor.
  for (const char* workload : {"stream", "sg"}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      Config cli;
      cli.set("metrics", "1");
      cli.set("sample_interval", "700");
      cli.set("cores", "4");
      SystemConfig cfg = config_from_cli(cli);

      workloads::WorkloadParams params;
      params.num_cores = cfg.hierarchy.num_cores;
      params.accesses_per_core = 2500;
      params.seed = seed;
      auto gen = workloads::make_workload(workload);
      ASSERT_NE(gen, nullptr);
      const trace::MultiTrace mt = gen->generate(params);

      cfg.hierarchy.num_cores = static_cast<std::uint32_t>(mt.num_cores());
      apply_mode(cfg, cfg.mode);
      System sys(cfg);
      (void)sys.run(mt);
      ASSERT_NE(sys.metrics(), nullptr);
      const std::string text = sys.metrics()->render_prometheus();

      const std::string path = std::string(HMCC_PRESEAM_DIR) + "/" +
                               workload + "_s" + std::to_string(seed) +
                               ".prom";
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr) << path;
      std::string fixture;
      char buf[4096];
      std::size_t got;
      while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
        fixture.append(buf, got);
      }
      std::fclose(f);
      EXPECT_EQ(text, fixture)
          << workload << " seed " << seed << " drifted from " << path;
    }
  }
}

}  // namespace
}  // namespace hmcc::system
