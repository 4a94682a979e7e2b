#include "coalescer/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coalescer/request.hpp"
#include "common/rng.hpp"

namespace hmcc::coalescer {
namespace {

std::vector<std::uint64_t> random_window(Xoshiro256& rng, std::uint32_t n,
                                         std::uint32_t valid) {
  std::vector<std::uint64_t> keys(n, kInvalidKey);
  for (std::uint32_t i = 0; i < valid; ++i) keys[i] = rng.below(1 << 24);
  return keys;
}

TEST(Pipeline, PerStageShapeMatchesPaper221Split) {
  // §4.1: n=16 -> 4 pipeline stages with steps distributed 2-2-3-3, so the
  // unloaded latency is 10 tau and a sorted window emerges every 3 tau.
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  const PipelineCost cost = sorter.cost();
  EXPECT_EQ(cost.pipeline_stages, 4u);
  EXPECT_EQ(cost.total_steps, 10u);
  EXPECT_EQ(cost.latency, 20u);              // 10 tau, tau=2
  EXPECT_EQ(cost.initiation_interval, 6u);   // 3 tau
  EXPECT_EQ(cost.request_buffers, 64u);      // 4 stages x 16 slots
}

TEST(Pipeline, PerStepShapeIsTenStages) {
  PipelinedSorter sorter(16, PipelineShape::kPerStep, 2);
  const PipelineCost cost = sorter.cost();
  EXPECT_EQ(cost.pipeline_stages, 10u);
  EXPECT_EQ(cost.latency, 20u);
  EXPECT_EQ(cost.initiation_interval, 2u);   // 1 tau
  EXPECT_EQ(cost.request_buffers, 160u);     // §4.1: "160 request buffers"
  EXPECT_EQ(cost.comparators, 63u);          // §4.1: "63 comparators"
}

TEST(Pipeline, PerStageUsesFewerComparators) {
  const PipelineCost per_stage =
      PipelinedSorter(16, PipelineShape::kPerStage, 2).cost();
  const PipelineCost per_step =
      PipelinedSorter(16, PipelineShape::kPerStep, 2).cost();
  EXPECT_LT(per_stage.comparators, per_step.comparators);
  EXPECT_LT(per_stage.request_buffers, per_step.request_buffers);
}

TEST(Pipeline, FullWindowUnloadedLatency) {
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  Xoshiro256 rng(3);
  auto keys = random_window(rng, 16, 16);
  const Cycle done = sorter.process(keys, 16, /*submit=*/100);
  EXPECT_EQ(done, 100 + 20);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Pipeline, BackToBackBatchesPipeline) {
  // Two saturating batches: the second finishes one initiation interval
  // after the first, not one full latency after.
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  Xoshiro256 rng(4);
  auto k1 = random_window(rng, 16, 16);
  auto k2 = random_window(rng, 16, 16);
  const Cycle d1 = sorter.process(k1, 16, 0);
  const Cycle d2 = sorter.process(k2, 16, 0);
  EXPECT_EQ(d1, 20u);
  EXPECT_EQ(d2, 26u);  // + 3 tau (the deepest stage)
}

TEST(Pipeline, StageSelectShortensSmallWindows) {
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  Xoshiro256 rng(5);
  // 8 valid keys need 3 algorithmic stages = 6 steps = 12 cycles.
  auto keys = random_window(rng, 16, 8);
  const Cycle done = sorter.process(keys, 8, 0);
  EXPECT_EQ(done, 12u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_GT(sorter.stages_skipped(), 0u);
}

TEST(Pipeline, SingleRequestWindowStillTakesOneTau) {
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  std::vector<std::uint64_t> keys(16, kInvalidKey);
  keys[0] = 42;
  const Cycle done = sorter.process(keys, 1, 10);
  EXPECT_EQ(done, 12u);
}

TEST(Pipeline, SortsEveryValidCountCorrectly) {
  Xoshiro256 rng(6);
  for (auto shape : {PipelineShape::kPerStage, PipelineShape::kPerStep}) {
    PipelinedSorter sorter(16, shape, 2);
    for (std::uint32_t valid = 1; valid <= 16; ++valid) {
      for (int t = 0; t < 50; ++t) {
        auto keys = random_window(rng, 16, valid);
        auto expect = keys;
        std::sort(expect.begin(), expect.end());
        sorter.process(keys, valid, sorter.batches() * 100);
        EXPECT_EQ(keys, expect);
      }
    }
  }
}

TEST(Pipeline, FenceMonopolizesFirstStage) {
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  const Cycle fence_done = sorter.process_fence(0);
  EXPECT_EQ(fence_done, 4u);  // stage depth 2 steps * tau 2
  // A batch submitted at 0 now waits for the fence to clear stage 1.
  Xoshiro256 rng(7);
  auto keys = random_window(rng, 16, 16);
  const Cycle done = sorter.process(keys, 16, 0);
  EXPECT_EQ(done, 4u + 20u);
}

TEST(Pipeline, LatencyStatisticsAccumulate) {
  PipelinedSorter sorter(16, PipelineShape::kPerStage, 2);
  Xoshiro256 rng(8);
  for (int i = 0; i < 10; ++i) {
    auto keys = random_window(rng, 16, 16);
    sorter.process(keys, 16, static_cast<Cycle>(1000 * i));
  }
  EXPECT_EQ(sorter.batches(), 10u);
  EXPECT_DOUBLE_EQ(sorter.sort_latency().mean(), 20.0);
}

TEST(Pipeline, WiderWindowsStillSort) {
  Xoshiro256 rng(9);
  for (std::uint32_t n : {4u, 8u, 32u, 64u}) {
    PipelinedSorter sorter(n, PipelineShape::kPerStage, 2);
    for (int t = 0; t < 30; ++t) {
      const auto valid = static_cast<std::uint32_t>(rng.between(1, n));
      auto keys = random_window(rng, n, valid);
      auto expect = keys;
      std::sort(expect.begin(), expect.end());
      sorter.process(keys, valid, static_cast<Cycle>(t) * 1000);
      EXPECT_EQ(keys, expect);
    }
  }
}

}  // namespace
}  // namespace hmcc::coalescer
