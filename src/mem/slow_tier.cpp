#include "mem/slow_tier.hpp"

#include <algorithm>
#include <utility>

namespace hmcc::mem {

SlowTierDevice::SlowTierDevice(Kernel& kernel, const SlowTierConfig& cfg)
    : kernel_(kernel), cfg_(cfg), channels_(cfg.num_channels) {}

void SlowTierDevice::submit(Addr addr, std::uint32_t bytes, ReqType type,
                            Callback cb) {
  const std::uint64_t global_row = addr / cfg_.row_bytes;
  Channel& ch = channels_[global_row % channels_.size()];
  const std::uint64_t row = global_row / channels_.size();

  const Cycle arrival = kernel_.now() + cfg_.ctrl_latency;
  const Cycle start = std::max(arrival, ch.busy_until);

  Cycle row_latency = 0;
  if (!ch.row_open) {
    row_latency = cfg_.t_rcd;
    ++stats_.row_activations;
  } else if (ch.open_row != row) {
    row_latency = cfg_.t_rp + cfg_.t_rcd;
    ++stats_.row_conflicts;
    ++stats_.row_activations;
  } else {
    ++stats_.row_hits;
  }
  ch.open_row = row;
  ch.row_open = true;

  const Cycle columns = (bytes + 31) / 32;
  const Cycle data_ready =
      start + row_latency + cfg_.t_cl + columns * cfg_.t_column_burst;
  ch.busy_until = data_ready;

  if (type == ReqType::kStore) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  stats_.payload_bytes += bytes;
  stats_.latency.add(static_cast<double>(data_ready - kernel_.now()));

  ++outstanding_;
  kernel_.schedule_at(data_ready, [this, cb = std::move(cb)] {
    --outstanding_;
    cb();
  });
}

}  // namespace hmcc::mem
