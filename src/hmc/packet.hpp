// HMC 2.1 packetized request/response interface.
//
// Every transaction is a request packet plus a response packet, each carrying
// one 16 B control FLIT (header + tail); data payloads occupy additional
// 16 B FLITs.  This file provides the command encoding, FLIT arithmetic and
// the header bit-layout encode/decode used by unit tests to check that the
// wire format round-trips.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace hmcc::hmc {

/// Transaction commands, HMC 2.1 table 19-ish subset: posted/non-posted
/// reads and writes of 16..256 B in 16 B steps.
enum class Command : std::uint8_t {
  kRd16, kRd32, kRd48, kRd64, kRd80, kRd96, kRd112, kRd128, kRd256,
  kWr16, kWr32, kWr48, kWr64, kWr80, kWr96, kWr112, kWr128, kWr256,
};

[[nodiscard]] constexpr bool is_read(Command c) noexcept {
  return c <= Command::kRd256;
}

/// Payload bytes carried by @p c.
[[nodiscard]] constexpr std::uint32_t payload_bytes(Command c) noexcept {
  constexpr std::uint32_t sizes[] = {16, 32, 48, 64, 80, 96, 112, 128, 256};
  const auto i = static_cast<std::uint32_t>(c);
  return sizes[i < 9 ? i : i - 9];
}

/// Command for a read/write of @p bytes, if the size is representable
/// (multiple of 16, <=128, or exactly 256).
[[nodiscard]] std::optional<Command> command_for(ReqType type,
                                                 std::uint32_t bytes) noexcept;

/// Smallest representable request size that covers @p bytes.
[[nodiscard]] std::uint32_t round_up_request_size(std::uint32_t bytes) noexcept;

/// A request packet as submitted to the device.
struct RequestPacket {
  ReqId id = 0;
  Command cmd = Command::kRd64;
  Addr addr = 0;   ///< byte address, must be size-aligned for max efficiency
  std::uint8_t tag = 0;  ///< link-level tag (wraps; informational)

  [[nodiscard]] std::uint32_t data_bytes() const noexcept {
    return payload_bytes(cmd);
  }
  /// FLITs on the request channel: header/tail FLIT + data FLITs for writes.
  [[nodiscard]] std::uint32_t request_flits() const noexcept {
    return 1 + (is_read(cmd) ? 0 : data_bytes() / hmcspec::kFlitBytes);
  }
  /// FLITs on the response channel: header/tail FLIT + data FLITs for reads.
  [[nodiscard]] std::uint32_t response_flits() const noexcept {
    return 1 + (is_read(cmd) ? data_bytes() / hmcspec::kFlitBytes : 0);
  }
  /// Total bytes moved across the link for the whole transaction.
  [[nodiscard]] std::uint32_t transferred_bytes() const noexcept {
    return (request_flits() + response_flits()) * hmcspec::kFlitBytes;
  }
  /// Control (non-payload) bytes of the transaction — always 32 B.
  [[nodiscard]] std::uint32_t control_bytes() const noexcept {
    return transferred_bytes() - data_bytes();
  }
};

/// The completion delivered to the requester.
struct ResponsePacket {
  ReqId id = 0;
  Command cmd = Command::kRd64;
  Addr addr = 0;
  Cycle completed_at = 0;   ///< cycle the last response FLIT arrived
  Cycle submitted_at = 0;   ///< cycle the request entered the device
  [[nodiscard]] Cycle latency() const noexcept {
    return completed_at - submitted_at;
  }
};

/// Analytic bandwidth efficiency of a request of @p data_bytes (Figure 1):
/// requested / transferred for a full read transaction.
[[nodiscard]] constexpr double bandwidth_efficiency(
    std::uint32_t data_bytes) noexcept {
  const std::uint32_t transferred =
      data_bytes + hmcspec::kControlBytesPerTransaction;
  return static_cast<double>(data_bytes) / static_cast<double>(transferred);
}

/// Analytic control-overhead fraction of a request (Figure 1's other series).
[[nodiscard]] constexpr double control_overhead(
    std::uint32_t data_bytes) noexcept {
  return 1.0 - bandwidth_efficiency(data_bytes);
}

}  // namespace hmcc::hmc
