// HMC external serial link.
//
// Each link has an independent request and response channel; a packet of
// N FLITs occupies its channel for N * cycles_per_flit cycles.  Links are the
// shared resource where the paper's control-overhead argument bites: every
// 16 B header/tail FLIT spends link time that carries no payload.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "hmc/config.hpp"

namespace hmcc::hmc {

class Link {
 public:
  explicit Link(const HmcConfig& cfg) noexcept : cfg_(cfg) {}

  /// Serialize @p flits on the request channel starting no earlier than
  /// @p at; returns the cycle the last FLIT has left the transmitter.
  Cycle send_request(std::uint32_t flits, Cycle at) {
    const Cycle start = std::max(at, req_free_);
    req_free_ = start + static_cast<Cycle>(flits) * cfg_.cycles_per_flit;
    req_flits_ += flits;
    return req_free_;
  }

  /// Same for the response channel.
  Cycle send_response(std::uint32_t flits, Cycle at) {
    const Cycle start = std::max(at, resp_free_);
    resp_free_ = start + static_cast<Cycle>(flits) * cfg_.cycles_per_flit;
    resp_flits_ += flits;
    return resp_free_;
  }

  [[nodiscard]] std::uint64_t request_flits_sent() const noexcept {
    return req_flits_;
  }
  [[nodiscard]] std::uint64_t response_flits_sent() const noexcept {
    return resp_flits_;
  }

 private:
  HmcConfig cfg_;  // by value: see Bank
  Cycle req_free_ = 0;
  Cycle resp_free_ = 0;
  std::uint64_t req_flits_ = 0;
  std::uint64_t resp_flits_ = 0;
};

}  // namespace hmcc::hmc
