// The capacity tier: a flat DDR/NVM-style device with a handful of
// independent channels, each a single in-order row-buffer state machine on
// the shared event kernel. Deliberately simpler than the cube model — no
// links, no NoC, no per-bank parallelism — it exists to be *slower* in a
// configurable, deterministic way (SlowTierConfig) so the hybrid schemes
// have a real latency/bandwidth cliff to hide.
//
// Channel mapping interleaves rows: global_row = addr / row_bytes,
// channel = global_row % num_channels. A request pays the controller
// overhead, serializes on its channel's busy window, pays the open-page row
// state transition (hit / activate / conflict = precharge+activate) and
// then streams its columns at t_column_burst each.
#pragma once

#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/config.hpp"
#include "sim/kernel.hpp"

namespace hmcc::mem {

/// Traffic statistics of the slow tier's channels.
struct SlowTierStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_activations = 0;  ///< cold or post-precharge activates
  std::uint64_t row_conflicts = 0;    ///< open-row mismatch: precharge first
  Accumulator latency;                ///< submit -> data-ready, cycles
};

/// The raw channel device: the capacity side of mem=hybrid.
class SlowTierDevice {
 public:
  /// Completion callback; fires at the cycle the last column streamed out.
  using Callback = std::function<void()>;

  SlowTierDevice(Kernel& kernel, const SlowTierConfig& cfg);

  /// Accept one request. Timing is computed inline (the channels are
  /// in-order); only the completion is deferred through the kernel.
  void submit(Addr addr, std::uint32_t bytes, ReqType type, Callback cb);

  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] const SlowTierStats& stats() const noexcept { return stats_; }

 private:
  struct Channel {
    Cycle busy_until = 0;
    std::uint64_t open_row = 0;
    bool row_open = false;
  };

  Kernel& kernel_;
  SlowTierConfig cfg_;
  std::vector<Channel> channels_;
  SlowTierStats stats_;
  std::uint64_t outstanding_ = 0;
};

}  // namespace hmcc::mem
