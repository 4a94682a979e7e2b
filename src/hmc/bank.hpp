// DRAM bank timing state machine.
//
// Models a single bank inside a vault: row activation (tRCD), column access
// (tCL), data burst, and precharge (tRP), under either closed-page (HMC
// default: precharge after every access) or open-page policy.  This is what
// makes the paper's motivating example concrete: sixteen 16 B reads of one
// 256 B block open and close the same row sixteen times under closed-page,
// while one coalesced 256 B read opens it once.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hmc/config.hpp"

namespace hmcc::hmc {

struct BankAccessResult {
  Cycle start;        ///< when the bank began serving (>= requested start)
  Cycle data_ready;   ///< when the last data beat leaves the arrays
  Cycle bank_free;    ///< when the bank can accept the next access
  bool row_hit;       ///< open-page row buffer hit
  bool conflict;      ///< had to wait for an earlier access / row cycle
};

class Bank {
 public:
  explicit Bank(const HmcConfig& cfg) noexcept : cfg_(cfg) {}

  /// Serve an access to @p row transferring @p bytes, earliest at @p at.
  BankAccessResult access(std::uint64_t row, std::uint32_t bytes, Cycle at);

  [[nodiscard]] std::uint64_t activations() const noexcept {
    return activations_;
  }
  [[nodiscard]] std::uint64_t row_hits() const noexcept { return row_hits_; }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }
  [[nodiscard]] Cycle busy_until() const noexcept { return busy_until_; }

  /// True when an access to @p row right now would hit the open row buffer
  /// (open-page only; closed-page auto-precharges, so never).
  [[nodiscard]] bool would_hit(std::uint64_t row) const noexcept {
    return !cfg_.closed_page && open_row_valid_ && open_row_ == row;
  }

 private:
  HmcConfig cfg_;  // by value: banks must not dangle if the source config dies
  Cycle busy_until_ = 0;
  std::uint64_t open_row_ = 0;
  bool open_row_valid_ = false;
  Cycle open_row_act_ = 0;  ///< ACT cycle of the currently open row
  std::uint64_t activations_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t conflicts_ = 0;
};

}  // namespace hmcc::hmc
