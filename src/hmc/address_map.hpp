// Physical-address to (vault, bank, row, column) decomposition.
//
// HMC 2.1 default "low interleave" mapping with the paper's 256 B maximum
// block size: the block offset occupies the low bits, then vault bits (so
// consecutive blocks stripe across vaults), then bank bits, then the row.
// A single <=256 B request therefore never spans vaults or banks, which is
// precisely the property the coalescer exploits.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "hmc/config.hpp"

namespace hmcc::hmc {

struct DecodedAddr {
  std::uint32_t vault;
  std::uint32_t bank;
  std::uint64_t row;
  std::uint32_t column;  ///< byte offset inside the row
  std::uint32_t offset;  ///< byte offset inside the block
};

class AddressMap {
 public:
  explicit AddressMap(const HmcConfig& cfg) noexcept
      : block_bits_(log2_floor(cfg.block_bytes)),
        vault_bits_(log2_floor(cfg.num_vaults)),
        bank_bits_(log2_floor(cfg.banks_per_vault)),
        row_bytes_(cfg.row_bytes),
        capacity_mask_(cfg.capacity_bytes - 1) {
    // Row-local bits above (block,vault,bank): a row holds
    // row_bytes/block_bytes blocks of this bank.
    blocks_per_row_bits_ = log2_floor(row_bytes_ / (1u << block_bits_));
  }

  [[nodiscard]] DecodedAddr decode(Addr addr) const noexcept {
    addr &= capacity_mask_;
    DecodedAddr d{};
    d.offset = static_cast<std::uint32_t>(bits(addr, 0, block_bits_));
    unsigned shift = block_bits_;
    d.vault = static_cast<std::uint32_t>(bits(addr, shift, vault_bits_));
    shift += vault_bits_;
    d.bank = static_cast<std::uint32_t>(bits(addr, shift, bank_bits_));
    shift += bank_bits_;
    const std::uint64_t block_in_row = bits(addr, shift, blocks_per_row_bits_);
    shift += blocks_per_row_bits_;
    d.row = addr >> shift;
    d.column = static_cast<std::uint32_t>(block_in_row << block_bits_) +
               d.offset;
    return d;
  }

  /// Inverse of decode(); reconstructs the (capacity-masked) address.
  [[nodiscard]] Addr encode(const DecodedAddr& d) const noexcept {
    Addr addr = d.offset & low_mask(block_bits_);
    unsigned shift = block_bits_;
    addr |= static_cast<Addr>(d.vault) << shift;
    shift += vault_bits_;
    addr |= static_cast<Addr>(d.bank) << shift;
    shift += bank_bits_;
    const std::uint64_t block_in_row =
        (d.column - d.offset) >> block_bits_;
    addr |= block_in_row << shift;
    shift += blocks_per_row_bits_;
    addr |= d.row << shift;
    return addr;
  }

 private:
  unsigned block_bits_;
  unsigned vault_bits_;
  unsigned bank_bits_;
  unsigned blocks_per_row_bits_ = 0;
  std::uint32_t row_bytes_;
  std::uint64_t capacity_mask_;
};

}  // namespace hmcc::hmc
