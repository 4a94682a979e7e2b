// Memory-coalescer configuration (paper §3-§4 parameters).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace hmcc::coalescer {

/// Pipeline organization of the sorting network (paper §4.1 ablation).
enum class PipelineShape : std::uint8_t {
  /// One pipeline stage per odd-even-mergesort *stage* (4 stages for n=16,
  /// depths 2-2-3-3): the paper's chosen space-efficient design.
  kPerStage,
  /// One pipeline stage per *step* (10 stages for n=16): lowest latency,
  /// highest buffer/comparator cost.
  kPerStep,
};

struct CoalescerConfig {
  /// Sorting window: requests per batch (n, power of two; paper uses 16).
  std::uint32_t window = 16;
  /// Cycles per comparator step (tau; paper: 2 cycles/operation).
  Cycle tau = 2;
  /// Max cycles a partially filled window waits before being flushed into
  /// the sorter (paper Fig 14 sweeps 16..28; "ideal to equate the timeout
  /// with the average coalescing latency").
  Cycle timeout = 24;
  /// Number of dynamic MSHR entries; the CRQ has the same capacity (§3.2.2).
  std::uint32_t num_mshrs = 16;
  /// Max subentries per dynamic MSHR entry.
  std::uint32_t max_subentries = 16;
  /// Cache line size (bytes).
  std::uint32_t line_bytes = arch::kLineSize;
  /// Maximum HMC packet (bytes); coalesced requests never cross a block of
  /// this size.
  std::uint32_t max_packet_bytes = hmcspec::kMaxRequestBytes;

  /// Phase enables, for the Figure 8 configuration sweep.
  bool enable_dmc = true;         ///< phase 1 (sort + DMC unit)
  bool enable_mshr_merge = true;  ///< phase 2 (dynamic-MSHR merging)
  /// Stage-select bypass: route raw requests straight to the MSHRs while
  /// they have room and the CRQ is empty (paper §4.2).
  bool enable_bypass = false;

  PipelineShape pipeline_shape = PipelineShape::kPerStage;

  [[nodiscard]] std::uint32_t max_lines_per_packet() const noexcept {
    return max_packet_bytes / line_bytes;
  }
};

}  // namespace hmcc::coalescer
