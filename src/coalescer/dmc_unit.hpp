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

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "coalescer/config.hpp"
#include "coalescer/request.hpp"
#include "common/bits.hpp"
#include "common/types.hpp"

namespace hmcc::coalescer {

struct DmcResult {
  std::vector<CoalescedPacket> packets;
  Cycle finished_at = 0;      ///< cycle the last packet left the DMC unit
  std::uint32_t merge_ops = 0;  ///< requests that passed the merge stage
};

/// The line-granularity packet rule of both coalescing phases (the DMC unit
/// and the dynamic MSHRs' re-split). @p run holds the requests of a run of
/// contiguous lines inside one max-packet block, grouped by line in
/// ascending line order. The run is cut into packets of the largest
/// power-of-two line count that fits the rest of the run and the maximum
/// packet, and `emit(addr, bytes, constituents)` is called for each packet
/// in address order; `constituents` is the sub-span of @p run that the
/// packet's lines hold, so constituent order is run order.
template <typename Emit>
void packetize_line_run(const CoalescerConfig& cfg,
                        std::span<const CoalescerRequest> run, Emit&& emit) {
  assert(!run.empty());
  const Addr line = cfg.line_bytes;
  const Addr first_line = align_down(run.front().addr, line);
  const auto count = static_cast<std::uint32_t>(
      (align_down(run.back().addr, line) - first_line) / line + 1);
  std::uint32_t emitted = 0;
  std::size_t begin = 0;
  while (emitted < count) {
    // Largest power-of-two chunk of lines that still fits the run and the
    // maximum packet. (Runs never cross a block, so no boundary check.)
    std::uint32_t chunk = 1;
    while (chunk * 2 <= std::min(count - emitted, cfg.max_lines_per_packet())) {
      chunk *= 2;
    }
    const Addr addr = first_line + static_cast<Addr>(emitted) * line;
    const Addr end = addr + static_cast<Addr>(chunk) * line;
    std::size_t stop = begin;
    while (stop < run.size() && run[stop].addr < end) ++stop;
    emit(addr, static_cast<std::uint32_t>(end - addr),
         run.subspan(begin, stop - begin));
    begin = stop;
    emitted += chunk;
  }
}

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
