// Pipelined request sorting network (paper §3.3, §4.1).
//
// The odd-even mergesort steps are grouped into pipeline stages.  The paper's
// chosen design for n=16 groups the 10 steps into 4 stages of depths
// 2-2-3-3 ("the 1st and 2nd stage consists of steps 1-4, with 2 steps per
// stage; the rest 6 steps are evenly distributed in stages 3 and 4"),
// trading 2 tau of latency for a fraction of the buffers/comparators of the
// 10-stage one-step-per-stage design.  Both shapes are implemented for the
// §4.1 ablation.
//
// Timing model: each stage is busy for (steps it executes) * tau cycles per
// batch; a batch enters stage g when both the previous stage has released it
// and stage g is free.  Stage-select skips trailing merge stages whenever the
// valid prefix of the window fits in 2^s keys, and lets a memory fence
// monopolize one full stage (§3.4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coalescer/config.hpp"
#include "coalescer/sorting_network.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hmcc::coalescer {

/// Hardware-cost summary for the §4.1 design-space discussion.
struct PipelineCost {
  std::uint32_t pipeline_stages;
  std::uint32_t request_buffers;  ///< window slots held across stages
  std::uint32_t comparators;      ///< comparator banks summed over stages
  std::uint32_t total_steps;
  /// Cycles between consecutive sorted outputs when saturated.
  Cycle initiation_interval;
  /// Cycles from window entry to sorted output (unloaded).
  Cycle latency;
};

class PipelinedSorter {
 public:
  PipelinedSorter(std::uint32_t window, PipelineShape shape, Cycle tau);

  /// Sort @p keys (size == window; the first @p valid_count slots hold real
  /// keys, the tail holds padding greater than every real key, such as
  /// kInvalidKey) entering the pipe at @p submit. Returns the cycle the
  /// sorted window leaves the pipeline.
  Cycle process(std::span<std::uint64_t> keys, std::uint32_t valid_count,
                Cycle submit);

  /// A memory fence monopolizes the first pipeline stage (no sorting work);
  /// returns the cycle the fence has drained out of the pipe.
  Cycle process_fence(Cycle submit);

  [[nodiscard]] const SortingNetwork& network() const noexcept { return net_; }
  [[nodiscard]] PipelineCost cost() const;
  [[nodiscard]] std::uint32_t num_pipeline_stages() const noexcept {
    return static_cast<std::uint32_t>(group_steps_.size());
  }
  [[nodiscard]] const Accumulator& sort_latency() const noexcept {
    return sort_latency_;
  }
  [[nodiscard]] std::uint64_t batches() const noexcept { return batches_; }
  [[nodiscard]] std::uint64_t stages_skipped() const noexcept {
    return stages_skipped_;
  }

 private:
  SortingNetwork net_;
  Cycle tau_;
  /// group_steps_[g] = flat step indices executed by pipeline stage g.
  std::vector<std::vector<std::uint32_t>> group_steps_;
  /// Flat view of the network: step index -> comparators.
  std::vector<const std::vector<Comparator>*> flat_steps_;
  /// Steps executed before algorithmic stage s begins (prefix sums).
  std::vector<std::uint32_t> steps_before_stage_;
  std::vector<Cycle> group_free_;
  Accumulator sort_latency_;
  std::uint64_t batches_ = 0;
  std::uint64_t stages_skipped_ = 0;
};

}  // namespace hmcc::coalescer
