// DMC unit: first-phase dynamic memory coalescing (paper §3.2.2, §3.5).
//
// Consumes the *sorted* request window and merges identical / contiguous
// same-type requests into HMC packets, never crossing a max-packet (256 B)
// block boundary. DmcUnit works at line granularity, the runtime path:
// requests are 64 B lines and packets are 1/2/4 lines (the 2-bit size
// encoding 00/01/10 of the dynamic MSHRs). coalesce_payload() is the
// offline accounting mode of Figures 9-10: requests are raw byte extents
// and packets are FLIT multiples (16..128, 256).
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

/// The line-granularity packet rule of both coalescing phases (the DMC unit
/// and the dynamic MSHRs' re-split): cut a run of lines.size() contiguous
/// lines from @p first_line_addr, which must lie inside one max-packet
/// block, into packets of the largest power-of-two line count that fits the
/// rest of the run and the maximum packet, and append them to @p out.
/// lines[i] holds the requests of line i; they move into the packets.
void packetize_line_run(const CoalescerConfig& cfg, Addr first_line_addr,
                        std::span<std::vector<CoalescerRequest>> lines,
                        ReqType type, Cycle ready_at,
                        std::vector<CoalescedPacket>& out);

/// Payload-granularity coalescing, the paper's accounting for Figures 9-10
/// ("coalesce ... based on the actual requested data size"): merge @p sorted
/// (ascending by sort key) into FLIT-multiple packets with the same
/// two-stage compare/merge timing as DmcUnit, starting at cycle @p start.
[[nodiscard]] DmcResult coalesce_payload(
    const CoalescerConfig& cfg, std::span<const CoalescerRequest> sorted,
    Cycle start);

class DmcUnit {
 public:
  explicit DmcUnit(const CoalescerConfig& cfg) noexcept : cfg_(cfg) {}

  /// Coalesce @p sorted (ascending by sort key, i.e. loads first, then
  /// stores, each by address) starting at cycle @p start.
  [[nodiscard]] DmcResult coalesce(std::span<const CoalescerRequest> sorted,
                                   Cycle start) const;

 private:
  CoalescerConfig cfg_;
};

}  // namespace hmcc::coalescer
