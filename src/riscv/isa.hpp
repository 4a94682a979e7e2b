// RV64IM instruction set: opcodes and decoded-instruction representation.
//
// The paper implements its coalescer host as "a small, embedded RISC-V core
// that implements the basic RISC-V RV64I instruction set", traced with the
// Spike simulator. This module is the in-repo equivalent: a compact RV64IM
// functional core (risc-v spec v2.1 unprivileged subset, no CSRs/MMU) whose
// loads and stores feed the memory-system simulator.
#pragma once

#include <cstdint>
#include <string>

namespace hmcc::riscv {

enum class Op : std::uint8_t {
  kInvalid,
  // RV64I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  kSb, kSh, kSw, kSd,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kAddiw, kSlliw, kSrliw, kSraiw,
  kAddw, kSubw, kSllw, kSrlw, kSraw,
  kFence, kEcall, kEbreak,
  // RV64M
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kMulw, kDivw, kDivuw, kRemw, kRemuw,
  // RV64A (the paper group's GoblinCore-64 maps these onto HMC atomic
  // packets; here they execute as indivisible read-modify-writes)
  kLrW, kLrD, kScW, kScD,
  kAmoSwapW, kAmoSwapD, kAmoAddW, kAmoAddD, kAmoXorW, kAmoXorD,
  kAmoAndW, kAmoAndD, kAmoOrW, kAmoOrD,
};

/// A fully decoded instruction.
struct Instruction {
  Op op = Op::kInvalid;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int64_t imm = 0;
  std::uint32_t raw = 0;

  [[nodiscard]] bool valid() const noexcept { return op != Op::kInvalid; }
  [[nodiscard]] bool is_load() const noexcept {
    return op >= Op::kLb && op <= Op::kLwu;
  }
  [[nodiscard]] bool is_store() const noexcept {
    return op >= Op::kSb && op <= Op::kSd;
  }
  [[nodiscard]] bool is_branch() const noexcept {
    return op >= Op::kBeq && op <= Op::kBgeu;
  }
  [[nodiscard]] bool is_atomic() const noexcept {
    return op >= Op::kLrW && op <= Op::kAmoOrD;
  }
  /// Memory access width in bytes (loads/stores only).
  [[nodiscard]] std::uint32_t access_bytes() const noexcept;
};

/// Decode one 32-bit instruction word.
[[nodiscard]] Instruction decode(std::uint32_t word) noexcept;

/// Encode a decoded instruction back into its 32-bit word (used by the
/// assembler and round-trip tests). Returns 0 for kInvalid.
[[nodiscard]] std::uint32_t encode(const Instruction& inst) noexcept;

/// Register number of an ABI name (zero/ra/sp/..., fp) or of x0..x31; -1
/// when @p name is neither.
[[nodiscard]] int register_number(const std::string& name) noexcept;

}  // namespace hmcc::riscv
