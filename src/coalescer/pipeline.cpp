#include "coalescer/pipeline.hpp"

#include <algorithm>
#include <cassert>

namespace hmcc::coalescer {

PipelinedSorter::PipelinedSorter(std::uint32_t window, PipelineShape shape,
                                 Cycle tau)
    : net_(window), tau_(tau) {
  // Flatten the network's steps and remember algorithmic stage boundaries.
  steps_before_stage_.push_back(0);
  for (std::uint32_t s = 0; s < net_.num_stages(); ++s) {
    for (const auto& step : net_.stage(s)) flat_steps_.push_back(&step);
    steps_before_stage_.push_back(
        static_cast<std::uint32_t>(flat_steps_.size()));
  }

  const auto total = static_cast<std::uint32_t>(flat_steps_.size());
  if (shape == PipelineShape::kPerStep) {
    for (std::uint32_t i = 0; i < total; ++i) group_steps_.push_back({i});
  } else {
    // Balanced grouping into num_stages groups: for n=16 this yields the
    // paper's 2-2-3-3 step distribution across 4 pipeline stages.
    const std::uint32_t groups = net_.num_stages();
    std::uint32_t next = 0;
    for (std::uint32_t g = 0; g < groups; ++g) {
      // Distribute remaining steps as evenly as possible, small groups first
      // (10 steps over 4 groups -> 2,2,3,3).
      const std::uint32_t remaining_groups = groups - g;
      const std::uint32_t take = (total - next) / remaining_groups;
      std::vector<std::uint32_t> ids;
      for (std::uint32_t i = 0; i < take && next < total; ++i) {
        ids.push_back(next++);
      }
      group_steps_.push_back(std::move(ids));
    }
    assert(next == total);
  }
  group_free_.assign(group_steps_.size(), 0);
}

Cycle PipelinedSorter::process(std::span<std::uint64_t> keys,
                               std::uint32_t valid_count, Cycle submit) {
  // Stage-select: how many algorithmic stages (and hence flat steps) this
  // window actually needs.
  const std::uint32_t alg_stages = net_.stages_needed(valid_count);
  stages_skipped_ += net_.num_stages() - alg_stages;
  const std::uint32_t steps_needed = steps_before_stage_[alg_stages];

  // Functional sort: execute exactly the steps the hardware would.
  net_.sort_partial(keys, alg_stages);

  // Timing: walk the pipeline groups until the needed steps are covered.
  Cycle t = submit;
  std::uint32_t steps_done = 0;
  for (std::size_t g = 0; g < group_steps_.size() && steps_done < steps_needed;
       ++g) {
    const auto group_size =
        static_cast<std::uint32_t>(group_steps_[g].size());
    const std::uint32_t use = std::min(group_size, steps_needed - steps_done);
    const Cycle enter = std::max(t, group_free_[g]);
    t = enter + static_cast<Cycle>(use) * tau_;
    group_free_[g] = t;
    steps_done += use;
  }
  if (steps_needed == 0) {
    // Degenerate single-request window: passes through stage 0 in one tau.
    const Cycle enter = std::max(t, group_free_.empty() ? t : group_free_[0]);
    t = enter + tau_;
    if (!group_free_.empty()) group_free_[0] = t;
  }

  ++batches_;
  sort_latency_.add(static_cast<double>(t - submit));
  return t;
}

Cycle PipelinedSorter::process_fence(Cycle submit) {
  // The fence occupies the full first stage (its step budget) exclusively.
  if (group_free_.empty()) return submit;
  const Cycle enter = std::max(submit, group_free_[0]);
  const Cycle done =
      enter + static_cast<Cycle>(group_steps_[0].size()) * tau_;
  group_free_[0] = done;
  return done;
}

PipelineCost PipelinedSorter::cost() const {
  PipelineCost c{};
  c.pipeline_stages = num_pipeline_stages();
  c.request_buffers = c.pipeline_stages * net_.width();
  c.total_steps = net_.num_steps();
  // Each pipeline stage owns one comparator bank sized for its widest step
  // (kPerStep: each step keeps its own comparators, so this sums to the
  // network's full comparator count).
  std::uint32_t comparators = 0;
  Cycle max_depth = 0;
  for (const auto& group : group_steps_) {
    std::uint32_t widest = 0;
    for (std::uint32_t step_id : group) {
      widest = std::max(
          widest, static_cast<std::uint32_t>(flat_steps_[step_id]->size()));
    }
    comparators += widest;
    max_depth = std::max(max_depth, static_cast<Cycle>(group.size()));
  }
  c.comparators = comparators;
  c.initiation_interval = max_depth * tau_;
  c.latency = static_cast<Cycle>(net_.num_steps()) * tau_;
  return c;
}

}  // namespace hmcc::coalescer
