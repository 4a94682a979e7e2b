#include "hmc/packet.hpp"

#include "common/bits.hpp"

namespace hmcc::hmc {

std::optional<Command> command_for(ReqType type, std::uint32_t bytes) noexcept {
  if (bytes == 0 || bytes % hmcspec::kFlitBytes != 0) return std::nullopt;
  std::uint32_t index;
  if (bytes <= 128) {
    index = bytes / 16 - 1;  // 16->0 .. 128->7
  } else if (bytes == 256) {
    index = 8;
  } else {
    return std::nullopt;
  }
  const auto base = type == ReqType::kLoad ? 0u : 9u;
  return static_cast<Command>(base + index);
}

std::uint32_t round_up_request_size(std::uint32_t bytes) noexcept {
  if (bytes == 0) return hmcspec::kMinRequestBytes;
  const std::uint32_t flit_rounded =
      static_cast<std::uint32_t>(align_up(bytes, hmcspec::kFlitBytes));
  if (flit_rounded <= 128) return flit_rounded;
  return hmcspec::kMaxRequestBytes;
}

}  // namespace hmcc::hmc
