#include "workloads/warp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/config.hpp"
#include "trace/codec.hpp"
#include "workloads/workload.hpp"

namespace hmcc::workloads {
namespace {

// --- Intra-warp merge ------------------------------------------------------

TEST(WarpCoalesce, ConvergedVectorCollapsesToOneRun) {
  // 32 unit-stride 8 B lanes from a line-aligned base: 256 B = 4 lines.
  std::vector<Addr> lanes;
  for (std::uint32_t l = 0; l < 32; ++l) lanes.push_back(0x10000 + l * 8);
  const auto runs = coalesce_warp_vector(lanes, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].addr, 0x10000u);
  EXPECT_EQ(runs[0].lines, 4u);
}

TEST(WarpCoalesce, SameLineLanesDedupToOneLine) {
  const std::vector<Addr> lanes(32, 0x20008);  // broadcast access
  const auto runs = coalesce_warp_vector(lanes, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].addr, 0x20000u);
  EXPECT_EQ(runs[0].lines, 1u);
}

TEST(WarpCoalesce, DivergentLanesStaySeparate) {
  std::vector<Addr> lanes;
  for (std::uint32_t l = 0; l < 16; ++l) lanes.push_back(0x30000 + l * 128);
  const auto runs = coalesce_warp_vector(lanes, 8);
  ASSERT_EQ(runs.size(), 16u);
  for (const WarpRun& r : runs) EXPECT_EQ(r.lines, 1u);
}

TEST(WarpCoalesce, LaneOrderDoesNotMatter) {
  std::vector<Addr> fwd, rev;
  for (std::uint32_t l = 0; l < 8; ++l) fwd.push_back(0x40000 + l * 64);
  rev.assign(fwd.rbegin(), fwd.rend());
  const auto a = coalesce_warp_vector(fwd, 8);
  const auto b = coalesce_warp_vector(rev, 8);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].addr, b[0].addr);
  EXPECT_EQ(a[0].lines, b[0].lines);
}

TEST(WarpCoalesce, StraddlingAccessTouchesBothLines) {
  // A 16 B access starting 8 bytes before a line boundary spans two lines.
  const auto runs = coalesce_warp_vector({0x50038}, 16);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].addr, 0x50000u);
  EXPECT_EQ(runs[0].lines, 2u);
}

// --- Workload registration -------------------------------------------------

TEST(WarpWorkloads, ResolveByNameButStayOutOfThePaperList) {
  for (const char* name : {"warp_gups", "warp_saxpy", "warp_chase"}) {
    EXPECT_NE(make_workload(name), nullptr) << name;
    const auto& paper = workload_names();
    EXPECT_EQ(std::find(paper.begin(), paper.end(), name), paper.end())
        << name << " must not join the paper's fixed 12";
  }
  EXPECT_EQ(workload_names().size(), 12u);
}

TEST(WarpWorkloads, DeterministicInSeedAndParams) {
  WorkloadParams p;
  p.num_cores = 3;
  p.accesses_per_core = 800;
  for (const char* name : {"warp_gups", "warp_saxpy", "warp_chase"}) {
    const auto gen = make_workload(name);
    const auto a = trace::encode(gen->generate(p));
    const auto b = trace::encode(gen->generate(p));
    EXPECT_EQ(a, b) << name;
    WorkloadParams p2 = p;
    p2.seed = 7;
    EXPECT_NE(trace::encode(gen->generate(p2)), a) << name;
  }
}

TEST(WarpWorkloads, BudgetAndStreamCountAreHonored) {
  WorkloadParams p;
  p.num_cores = 4;
  p.accesses_per_core = 500;
  for (const char* name : {"warp_gups", "warp_saxpy", "warp_chase"}) {
    const trace::MultiTrace mt = make_workload(name)->generate(p);
    ASSERT_EQ(mt.per_core.size(), 4u) << name;
    for (const auto& stream : mt.per_core) {
      EXPECT_EQ(stream.size(), 500u) << name;
      for (const auto& rec : stream) {
        ASSERT_TRUE(rec.is_access()) << name;
        EXPECT_EQ(rec.access_addr() % kWarpLineBytes, 0u) << name;
        EXPECT_EQ(rec.access_size() % kWarpLineBytes, 0u) << name;
      }
    }
  }
}

TEST(WarpWorkloads, WidthShapesTheRecordSizes) {
  WorkloadParams p;
  p.num_cores = 2;
  p.accesses_per_core = 600;
  p.warp.warp_width = 64;  // converged saxpy vector = 512 B = 8 lines
  const trace::MultiTrace wide = make_workload("warp_saxpy")->generate(p);
  bool saw_wide_run = false;
  for (const auto& rec : wide.per_core[0]) {
    if (rec.access_size() >= 8 * kWarpLineBytes) saw_wide_run = true;
  }
  EXPECT_TRUE(saw_wide_run);
  // Divergent gather never produces multi-line runs beyond chance adjacency.
  const trace::MultiTrace gups = make_workload("warp_gups")->generate(p);
  std::uint64_t single = 0, total = 0;
  for (const auto& rec : gups.per_core[0]) {
    ++total;
    if (rec.access_size() == kWarpLineBytes) ++single;
  }
  EXPECT_GT(single * 10, total * 9);  // >90% single-line
}

TEST(WarpWorkloads, MlpBoundChangesTheInterleave) {
  // Memory-latency jitter reorders warp wakeups once several warps are in
  // flight, so the MLP bound changes which warp's records land next. The
  // chase pattern carries per-warp state (lane cursors), so a different
  // schedule yields a different stream — while each (seed, params) point
  // stays deterministic. With max_outstanding_warps=1 the schedule is
  // strict round-robin regardless of jitter.
  WorkloadParams p;
  p.num_cores = 1;
  p.accesses_per_core = 1000;
  p.warp.max_outstanding_warps = 1;
  const auto serial = trace::encode(make_workload("warp_chase")->generate(p));
  p.warp.max_outstanding_warps = 8;
  const auto pipelined =
      trace::encode(make_workload("warp_chase")->generate(p));
  EXPECT_NE(serial, pipelined);
}

// --- Knob table ------------------------------------------------------------

TEST(WarpKnobs, TableCoversTheAdvertisedKeys) {
  const std::vector<std::string> expected = {"warps", "warp_width", "lanes",
                                             "max_outstanding_warps"};
  EXPECT_EQ(desc::knob_keys(warp_knobs()), expected);
  for (const auto& knob : warp_knobs()) {
    EXPECT_EQ(knob.meta.scope, "bench");
    EXPECT_FALSE(knob.meta.help.empty());
    EXPECT_FALSE(knob.meta.default_value.empty());
  }
}

TEST(WarpKnobs, FromCliAppliesAndValidates) {
  Config cli;
  cli.set("warp_width", "64");
  cli.set("max_outstanding_warps", "2");
  const WarpParams w = warp_params_from_cli(cli);
  EXPECT_EQ(w.warp_width, 64u);
  EXPECT_EQ(w.max_outstanding_warps, 2u);
  EXPECT_EQ(w.warps, 8u);  // untouched knobs keep defaults
  Config bad;
  bad.set("lanes", "0");  // below the min of 1
  EXPECT_THROW((void)warp_params_from_cli(bad), std::invalid_argument);
}

TEST(WarpKnobs, RoundTripsThroughRead) {
  Config cli;
  cli.set("warps", "16");
  const WarpParams w = warp_params_from_cli(cli);
  for (const auto& k : warp_knobs()) {
    if (k.meta.key == "warps") EXPECT_EQ(k.read(w), "16");
  }
}

}  // namespace
}  // namespace hmcc::workloads
