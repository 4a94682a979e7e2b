// §3.2.3 scaling: "Scaling this approach would require extending the size
// and line ID segment to support the possible larger request packets in the
// future HMC generations." These tests exercise the coalescer with a
// hypothetical 512 B-block HMC (3-bit size/line-ID equivalents) and other
// off-default platform shapes. The full-system points run on a ThreadPool
// — the pool bench_suite fans tasks out over — so the off-default shapes
// double as a concurrency test for parallel System instances.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "common/thread_pool.hpp"
#include "system/runner.hpp"

namespace hmcc::system {
namespace {

workloads::WorkloadParams tiny_params() {
  workloads::WorkloadParams p;
  p.accesses_per_core = 2000;
  p.seed = 5;
  return p;
}

trace::MultiTrace dense_trace(std::uint32_t cores, std::uint64_t lines) {
  trace::MultiTrace mt;
  mt.per_core.resize(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    for (std::uint64_t i = 0; i < lines; ++i) {
      mt.per_core[c].push_back(trace::TraceRecord::load(
          (i * cores + c) * 64 + (1ULL << 30), 8));
      if (i % 64 == 63) {
        mt.per_core[c].push_back(trace::TraceRecord::make_barrier());
      }
    }
  }
  return mt;
}

TEST(Scaling, OffDefaultPlatformShapesSweepInParallel) {
  // Four off-default platform shapes, simulated concurrently. Each lambda
  // builds its own System; assertions run on the collected reports.
  struct Shape {
    const char* name;
    SystemConfig cfg;
  };
  std::vector<Shape> shapes;

  SystemConfig future = paper_system_config();
  future.hierarchy.num_cores = 4;
  future.hmc.block_bytes = 512;
  future.coalescer.max_packet_bytes = 256;  // commands still cap at 256 B
  ASSERT_TRUE(future.hmc.valid());
  shapes.push_back({"future-hmc-512B-blocks", future});

  SystemConfig wide = paper_system_config();
  wide.hierarchy.num_cores = 4;
  wide.coalescer.window = 32;
  shapes.push_back({"wide-window", wide});

  SystemConfig open_page = paper_system_config();
  open_page.hierarchy.num_cores = 4;
  open_page.hmc.closed_page = false;
  shapes.push_back({"open-page", open_page});

  ThreadPool pool(4);
  std::vector<std::future<SystemReport>> futures;
  for (const Shape& shape : shapes) {
    futures.push_back(pool.submit([cfg = shape.cfg]() mutable {
      apply_mode(cfg, CoalescerMode::kFull);
      System sys(cfg);
      return sys.run(dense_trace(4, 1000));
    }));
  }
  std::vector<SystemReport> reports;
  for (auto& f : futures) reports.push_back(f.get());

  ASSERT_EQ(reports.size(), shapes.size());
  for (const auto& rep : reports) EXPECT_TRUE(rep.drained);

  EXPECT_EQ(reports[0].cpu_accesses, 4000u);          // future-hmc
  EXPECT_GT(reports[0].coalescing_efficiency(), 0.2);
  EXPECT_EQ(reports[1].llc_misses, 4000u);            // wide-window
  EXPECT_GT(reports[1].coalescing_efficiency(), 0.2);
  EXPECT_GT(reports[2].hmc.row_hits, 0u);             // open-page
}

TEST(Scaling, EightLinePacketsWhenCommandsAllow) {
  // A hypothetical future generation with 512 B max packets: the dynamic
  // MSHR line-ID field grows to 3 bits; our implementation is generic.
  coalescer::CoalescerConfig ccfg;
  ccfg.max_packet_bytes = 512;
  coalescer::DmcUnit dmc(ccfg);
  std::vector<coalescer::CoalescerRequest> batch;
  for (int i = 0; i < 8; ++i) {
    coalescer::CoalescerRequest r{};
    r.addr = 0x2000 + 64u * static_cast<Addr>(i);
    r.payload_bytes = 8;
    r.token = static_cast<std::uint64_t>(i);
    batch.push_back(r);
  }
  const auto res = dmc.coalesce(batch, 0);
  ASSERT_EQ(res.packets.size(), 1u);
  EXPECT_EQ(res.packets[0].bytes, 512u);

  coalescer::DynamicMshrFile mshrs(ccfg);
  const auto ins = mshrs.try_insert(res.packets[0]);
  ASSERT_TRUE(ins.accepted);
  ASSERT_EQ(ins.to_issue.size(), 1u);
  const auto fill = mshrs.on_fill(ins.to_issue[0].id);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->targets.size(), 8u);  // 3-bit line IDs round-trip
}

TEST(Scaling, MoreMshrsMoreThroughput) {
  ThreadPool pool(2);
  auto run_with = [&pool](std::uint32_t mshrs) {
    return pool.submit([mshrs] {
      SystemConfig cfg = paper_system_config();
      cfg.hierarchy.num_cores = 4;
      cfg.hierarchy.llc_mshrs = mshrs;
      apply_mode(cfg, CoalescerMode::kFull);
      System sys(cfg);
      return sys.run(dense_trace(4, 2000));
    });
  };
  auto few = run_with(4);
  auto many = run_with(32);
  EXPECT_LT(many.get().runtime, few.get().runtime);
}

TEST(Scaling, SingleCoreSystemWorks) {
  SystemConfig cfg = paper_system_config();
  cfg.hierarchy.num_cores = 1;
  apply_mode(cfg, CoalescerMode::kFull);
  const auto r = run_workload("stream", cfg, tiny_params());
  EXPECT_GT(r.report.cpu_accesses, 0u);
  EXPECT_GT(r.report.runtime, 0u);
}

}  // namespace
}  // namespace hmcc::system
