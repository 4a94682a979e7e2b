#include "system/config_bridge.hpp"

#include <gtest/gtest.h>

#include "system/runner.hpp"

namespace hmcc::system {
namespace {

TEST(ConfigBridge, DefaultsMatchPaperPlatform) {
  Config cli;
  const SystemConfig cfg = config_from_cli(cli);
  EXPECT_EQ(cfg.hierarchy.num_cores, 12u);
  EXPECT_EQ(cfg.hierarchy.llc_mshrs, 16u);
  EXPECT_EQ(cfg.coalescer.window, 16u);
  EXPECT_EQ(cfg.coalescer.tau, 2u);
  EXPECT_EQ(cfg.hmc.capacity_bytes, 8ULL << 30);
  EXPECT_EQ(cfg.hmc.block_bytes, 256u);
  EXPECT_EQ(cfg.mode, CoalescerMode::kFull);
}

TEST(ConfigBridge, OverlaysEveryCategory) {
  Config cli;
  for (const char* kv :
       {"cores=4", "llc_mshrs=8", "mlp=4", "issue_interval=2", "l1_kb=16",
        "l2_kb=128", "llc_kb=1024", "window=8", "tau=1", "timeout=16",
        "pipeline=step", "hmc_gb=4", "vaults=16", "banks=8", "links=2",
        "closed_page=off", "t_rcd=40", "mode=dmc-only"}) {
    ASSERT_TRUE(cli.set_from_string(kv));
  }
  SystemConfig cfg = paper_system_config();
  std::vector<std::string> errors;
  ASSERT_TRUE(overlay_config(cli, cfg, errors));
  EXPECT_EQ(cfg.hierarchy.num_cores, 4u);
  EXPECT_EQ(cfg.hierarchy.llc_mshrs, 8u);
  EXPECT_EQ(cfg.coalescer.num_mshrs, 8u);  // kept consistent by apply_mode
  EXPECT_EQ(cfg.core.max_outstanding_misses, 4u);
  EXPECT_EQ(cfg.core.issue_interval, 2u);
  EXPECT_EQ(cfg.hierarchy.l1.size_bytes, 16u << 10);
  EXPECT_EQ(cfg.hierarchy.llc.size_bytes, 1u << 20);
  EXPECT_EQ(cfg.coalescer.window, 8u);
  EXPECT_EQ(cfg.coalescer.tau, 1u);
  // apply_mode(dmc-only) turns the bypass on: the mode owns the flag set.
  EXPECT_TRUE(cfg.coalescer.enable_bypass);
  EXPECT_EQ(cfg.coalescer.pipeline_shape, coalescer::PipelineShape::kPerStep);
  EXPECT_EQ(cfg.hmc.capacity_bytes, 4ULL << 30);
  EXPECT_EQ(cfg.hmc.num_vaults, 16u);
  EXPECT_EQ(cfg.hmc.num_links, 2u);
  EXPECT_FALSE(cfg.hmc.closed_page);
  EXPECT_EQ(cfg.hmc.t_rcd, 40u);
  EXPECT_EQ(cfg.mode, CoalescerMode::kDmcOnly);
  EXPECT_TRUE(cfg.coalescer.enable_dmc);
  EXPECT_FALSE(cfg.coalescer.enable_mshr_merge);
}

TEST(ConfigBridge, RejectsInvalidStructures) {
  {
    Config cli;
    cli.set("vaults", "33");  // not a power of two
    SystemConfig cfg = paper_system_config();
    std::vector<std::string> errors;
    EXPECT_FALSE(overlay_config(cli, cfg, errors));
  }
  {
    Config cli;
    cli.set("mode", "warpspeed");
    SystemConfig cfg = paper_system_config();
    std::vector<std::string> errors;
    EXPECT_FALSE(overlay_config(cli, cfg, errors));
  }
  {
    Config cli;
    cli.set("pipeline", "spiral");
    SystemConfig cfg = paper_system_config();
    std::vector<std::string> errors;
    EXPECT_FALSE(overlay_config(cli, cfg, errors));
  }
  {
    Config cli;
    cli.set("window", "12");  // not a power of two
    SystemConfig cfg = paper_system_config();
    std::vector<std::string> errors;
    EXPECT_FALSE(overlay_config(cli, cfg, errors));
  }
}

TEST(ConfigBridge, ConstraintsNameTheOffendingKnob) {
  // Cross-knob invariants come from the declarative platform_constraints()
  // table; each violation files a "key: problem" error under its knob.
  {
    Config cli;
    cli.set("window", "64");  // wider than the default 16-entry MSHR file
    SystemConfig cfg = paper_system_config();
    std::vector<std::string> errors;
    EXPECT_FALSE(overlay_config(cli, cfg, errors));
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].rfind("window: ", 0), 0u) << errors[0];
    EXPECT_NE(errors[0].find("CRQ capacity"), std::string::npos) << errors[0];
  }
  {
    Config cli;
    cli.set("window", "64");  // legal once the MSHR file is widened too
    cli.set("llc_mshrs", "64");
    SystemConfig cfg = paper_system_config();
    std::vector<std::string> errors;
    EXPECT_TRUE(overlay_config(cli, cfg, errors));
    EXPECT_EQ(cfg.coalescer.window, 64u);
  }
}

TEST(ConfigBridge, OverlaidSystemRuns) {
  Config cli;
  cli.set("cores", "2");
  cli.set("window", "8");
  cli.set("hmc_gb", "1");
  SystemConfig cfg = paper_system_config();
  std::vector<std::string> errors;
  ASSERT_TRUE(overlay_config(cli, cfg, errors));
  workloads::WorkloadParams p;
  p.accesses_per_core = 1000;
  const auto r = run_workload("stream", cfg, p);
  EXPECT_GT(r.report.cpu_accesses, 0u);
}

}  // namespace
}  // namespace hmcc::system
