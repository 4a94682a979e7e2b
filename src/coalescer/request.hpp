// Request types flowing through the memory coalescer, and the sort-key
// address extensions of paper §3.4.
//
// Physical addresses use bits [0,51].  The coalescer re-purposes:
//   bit 52 = Type  (0 load / 1 store)  -> stores sort after all loads
//   bit 53 = Valid (0 valid / 1 invalid padding) -> padding sorts last
// so one plain unsigned comparison simultaneously orders by validity, type
// and address, with no changes to the sorting network.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace hmcc::coalescer {

inline constexpr unsigned kTypeBit = 52;
inline constexpr unsigned kValidBit = 53;

/// 54-bit sort key. Invalid padding keys compare greater than every valid
/// key; stores compare greater than every load.
[[nodiscard]] constexpr std::uint64_t make_sort_key(Addr addr, ReqType type,
                                                    bool valid = true) noexcept {
  std::uint64_t key = addr & low_mask(kTypeBit);
  if (type == ReqType::kStore) key |= 1ULL << kTypeBit;
  if (!valid) key |= 1ULL << kValidBit;
  return key;
}

[[nodiscard]] constexpr Addr key_addr(std::uint64_t key) noexcept {
  return key & low_mask(kTypeBit);
}
[[nodiscard]] constexpr ReqType key_type(std::uint64_t key) noexcept {
  return (key >> kTypeBit) & 1 ? ReqType::kStore : ReqType::kLoad;
}
[[nodiscard]] constexpr bool key_valid(std::uint64_t key) noexcept {
  return ((key >> kValidBit) & 1) == 0;
}
/// The key used to pad short windows (all-ones valid bit, max address).
inline constexpr std::uint64_t kInvalidKey = ~0ULL >> (63 - kValidBit);

/// A miss / write-back request arriving at the coalescer from the LLC.
struct CoalescerRequest {
  /// Byte address of the access. MemoryCoalescer::submit() line-aligns it;
  /// coalesce_payload() works on the raw byte address.
  Addr addr = 0;
  /// Bytes the CPU actually asked for (<= line size); drives the
  /// bandwidth-efficiency accounting of Figures 9-10.
  std::uint32_t payload_bytes = arch::kLineSize;
  ReqType type = ReqType::kLoad;
  /// Cycle the request entered the coalescer (set by the coalescer).
  Cycle arrival = 0;
  /// Opaque completion token returned to the owner when data arrives.
  std::uint64_t token = 0;

  [[nodiscard]] std::uint64_t sort_key() const noexcept {
    return make_sort_key(addr, type);
  }
};

/// A first-phase (DMC) output: one HMC request packet covering one or more
/// constituent requests, never crossing a max-packet-sized block.
struct CoalescedPacket {
  ReqId id = 0;          ///< assigned at issue time
  Addr addr = 0;         ///< base byte address
  std::uint32_t bytes = 0;  ///< wire size (64/128/256 in line mode)
  ReqType type = ReqType::kLoad;
  std::vector<CoalescerRequest> constituents;
  Cycle ready_at = 0;    ///< cycle the packet left the DMC unit

  [[nodiscard]] std::uint32_t num_lines(std::uint32_t line_bytes) const noexcept {
    return bytes / line_bytes;
  }
  /// Sum of constituent payloads (actual requested data).
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& r : constituents) sum += r.payload_bytes;
    return sum;
  }
  [[nodiscard]] Addr end() const noexcept { return addr + bytes; }
};

}  // namespace hmcc::coalescer
