// DMC unit: first-phase dynamic memory coalescing (paper §3.2.2, §3.5).
//
// Consumes the *sorted* request window and merges identical / contiguous
// same-type requests into HMC packets, never crossing a max-packet (256 B)
// block boundary.  Two granularities:
//   kLine    - requests are 64 B lines; packets are 1/2/4 lines (the 2-bit
//              size encoding 00/01/10 of the dynamic MSHRs);
//   kPayload - requests are raw byte extents; packets are FLIT multiples
//              (16..128, 256), the accounting mode of Figures 9-10.
//
// Timing (paper §4.2): a two-stage compare/merge pipeline at tau cycles per
// operation. Every request spends a compare slot; a request that coalesces
// additionally occupies the merge stage, so highly coalescable streams (FT)
// take longer to fill the CRQ — the effect Figure 13 reports.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coalescer/config.hpp"
#include "coalescer/request.hpp"
#include "common/types.hpp"

namespace hmcc::coalescer {

struct DmcResult {
  std::vector<CoalescedPacket> packets;
  Cycle finished_at = 0;      ///< cycle the last packet left the DMC unit
  std::uint32_t merge_ops = 0;  ///< requests that passed the merge stage
};

class DmcUnit {
 public:
  explicit DmcUnit(const CoalescerConfig& cfg) noexcept : cfg_(cfg) {}

  /// Coalesce @p sorted (ascending by sort key, i.e. loads first, then
  /// stores, each by address) starting at cycle @p start.
  [[nodiscard]] DmcResult coalesce(std::span<const CoalescerRequest> sorted,
                                   Cycle start) const;

  [[nodiscard]] const CoalescerConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] DmcResult coalesce_lines(
      std::span<const CoalescerRequest> sorted, Cycle start) const;
  [[nodiscard]] DmcResult coalesce_payload(
      std::span<const CoalescerRequest> sorted, Cycle start) const;

  /// Split the line run [first_line, first_line + count) into legal packet
  /// sizes (1/2/4 lines, power-of-two) and append packets to @p out.
  void emit_line_run(Addr first_line_addr, std::uint32_t count, ReqType type,
                     std::vector<std::vector<CoalescerRequest>>& line_groups,
                     Cycle ready_at, std::vector<CoalescedPacket>& out) const;

  CoalescerConfig cfg_;
};

}  // namespace hmcc::coalescer
