#include "riscv/isa.hpp"

#include <array>

#include "common/bits.hpp"

namespace hmcc::riscv {
namespace {

constexpr std::uint32_t kOpLui = 0b0110111;
constexpr std::uint32_t kOpAuipc = 0b0010111;
constexpr std::uint32_t kOpJal = 0b1101111;
constexpr std::uint32_t kOpJalr = 0b1100111;
constexpr std::uint32_t kOpBranch = 0b1100011;
constexpr std::uint32_t kOpLoad = 0b0000011;
constexpr std::uint32_t kOpStore = 0b0100011;
constexpr std::uint32_t kOpImm = 0b0010011;
constexpr std::uint32_t kOpReg = 0b0110011;
constexpr std::uint32_t kOpImm32 = 0b0011011;
constexpr std::uint32_t kOpReg32 = 0b0111011;
constexpr std::uint32_t kOpMiscMem = 0b0001111;
constexpr std::uint32_t kOpSystem = 0b1110011;
constexpr std::uint32_t kOpAmo = 0b0101111;

// funct5 (bits 31:27) -> op pair {W, D}; aq/rl (bits 26:25) are ignored.
constexpr std::uint32_t kF5Lr = 0b00010;
constexpr std::uint32_t kF5Sc = 0b00011;
constexpr std::uint32_t kF5Swap = 0b00001;
constexpr std::uint32_t kF5Add = 0b00000;
constexpr std::uint32_t kF5Xor = 0b00100;
constexpr std::uint32_t kF5And = 0b01100;
constexpr std::uint32_t kF5Or = 0b01000;

constexpr std::int64_t sext(std::uint64_t v, unsigned bits_used) {
  const std::uint64_t sign = 1ULL << (bits_used - 1);
  return static_cast<std::int64_t>((v ^ sign) - sign);
}

std::int64_t imm_i(std::uint32_t w) { return sext(bits(w, 20, 12), 12); }
std::int64_t imm_s(std::uint32_t w) {
  return sext((bits(w, 25, 7) << 5) | bits(w, 7, 5), 12);
}
std::int64_t imm_b(std::uint32_t w) {
  return sext((bits(w, 31, 1) << 12) | (bits(w, 7, 1) << 11) |
                  (bits(w, 25, 6) << 5) | (bits(w, 8, 4) << 1),
              13);
}
std::int64_t imm_u(std::uint32_t w) {
  return static_cast<std::int32_t>(w & 0xFFFFF000u);
}
std::int64_t imm_j(std::uint32_t w) {
  return sext((bits(w, 31, 1) << 20) | (bits(w, 12, 8) << 12) |
                  (bits(w, 20, 1) << 11) | (bits(w, 21, 10) << 1),
              21);
}

}  // namespace

std::uint32_t Instruction::access_bytes() const noexcept {
  switch (op) {
    case Op::kLb: case Op::kLbu: case Op::kSb: return 1;
    case Op::kLh: case Op::kLhu: case Op::kSh: return 2;
    case Op::kLw: case Op::kLwu: case Op::kSw: return 4;
    case Op::kLd: case Op::kSd: return 8;
    case Op::kLrW: case Op::kScW: case Op::kAmoSwapW: case Op::kAmoAddW:
    case Op::kAmoXorW: case Op::kAmoAndW: case Op::kAmoOrW: return 4;
    case Op::kLrD: case Op::kScD: case Op::kAmoSwapD: case Op::kAmoAddD:
    case Op::kAmoXorD: case Op::kAmoAndD: case Op::kAmoOrD: return 8;
    default: return 0;
  }
}

Instruction decode(std::uint32_t w) noexcept {
  Instruction inst{};
  inst.raw = w;
  inst.rd = static_cast<std::uint8_t>(bits(w, 7, 5));
  inst.rs1 = static_cast<std::uint8_t>(bits(w, 15, 5));
  inst.rs2 = static_cast<std::uint8_t>(bits(w, 20, 5));
  const std::uint32_t opcode = w & 0x7F;
  const auto f3 = static_cast<std::uint32_t>(bits(w, 12, 3));
  const auto f7 = static_cast<std::uint32_t>(bits(w, 25, 7));

  switch (opcode) {
    case kOpLui: inst.op = Op::kLui; inst.imm = imm_u(w); return inst;
    case kOpAuipc: inst.op = Op::kAuipc; inst.imm = imm_u(w); return inst;
    case kOpJal: inst.op = Op::kJal; inst.imm = imm_j(w); return inst;
    case kOpJalr:
      if (f3 == 0) { inst.op = Op::kJalr; inst.imm = imm_i(w); }
      return inst;
    case kOpBranch: {
      static constexpr Op ops[] = {Op::kBeq, Op::kBne, Op::kInvalid,
                                   Op::kInvalid, Op::kBlt, Op::kBge,
                                   Op::kBltu, Op::kBgeu};
      inst.op = ops[f3];
      inst.imm = imm_b(w);
      return inst;
    }
    case kOpLoad: {
      static constexpr Op ops[] = {Op::kLb, Op::kLh, Op::kLw, Op::kLd,
                                   Op::kLbu, Op::kLhu, Op::kLwu,
                                   Op::kInvalid};
      inst.op = ops[f3];
      inst.imm = imm_i(w);
      return inst;
    }
    case kOpStore: {
      static constexpr Op ops[] = {Op::kSb, Op::kSh, Op::kSw, Op::kSd,
                                   Op::kInvalid, Op::kInvalid, Op::kInvalid,
                                   Op::kInvalid};
      inst.op = ops[f3];
      inst.imm = imm_s(w);
      return inst;
    }
    case kOpImm: {
      inst.imm = imm_i(w);
      switch (f3) {
        case 0: inst.op = Op::kAddi; break;
        case 1:
          if (bits(w, 26, 6) == 0) {
            inst.op = Op::kSlli;
            inst.imm = static_cast<std::int64_t>(bits(w, 20, 6));
          }
          break;
        case 2: inst.op = Op::kSlti; break;
        case 3: inst.op = Op::kSltiu; break;
        case 4: inst.op = Op::kXori; break;
        case 5:
          if (bits(w, 26, 6) == 0) {
            inst.op = Op::kSrli;
            inst.imm = static_cast<std::int64_t>(bits(w, 20, 6));
          } else if (bits(w, 26, 6) == 0b010000) {
            inst.op = Op::kSrai;
            inst.imm = static_cast<std::int64_t>(bits(w, 20, 6));
          }
          break;
        case 6: inst.op = Op::kOri; break;
        case 7: inst.op = Op::kAndi; break;
        default: break;
      }
      return inst;
    }
    case kOpImm32: {
      inst.imm = imm_i(w);
      switch (f3) {
        case 0: inst.op = Op::kAddiw; break;
        case 1:
          if (f7 == 0) {
            inst.op = Op::kSlliw;
            inst.imm = static_cast<std::int64_t>(bits(w, 20, 5));
          }
          break;
        case 5:
          if (f7 == 0) {
            inst.op = Op::kSrliw;
            inst.imm = static_cast<std::int64_t>(bits(w, 20, 5));
          } else if (f7 == 0b0100000) {
            inst.op = Op::kSraiw;
            inst.imm = static_cast<std::int64_t>(bits(w, 20, 5));
          }
          break;
        default: break;
      }
      return inst;
    }
    case kOpReg: {
      if (f7 == 0b0000001) {  // M extension
        static constexpr Op ops[] = {Op::kMul, Op::kMulh, Op::kMulhsu,
                                     Op::kMulhu, Op::kDiv, Op::kDivu,
                                     Op::kRem, Op::kRemu};
        inst.op = ops[f3];
        return inst;
      }
      switch (f3) {
        case 0: inst.op = f7 == 0b0100000 ? Op::kSub
                          : f7 == 0       ? Op::kAdd
                                          : Op::kInvalid; break;
        case 1: if (f7 == 0) inst.op = Op::kSll; break;
        case 2: if (f7 == 0) inst.op = Op::kSlt; break;
        case 3: if (f7 == 0) inst.op = Op::kSltu; break;
        case 4: if (f7 == 0) inst.op = Op::kXor; break;
        case 5: inst.op = f7 == 0b0100000 ? Op::kSra
                          : f7 == 0       ? Op::kSrl
                                          : Op::kInvalid; break;
        case 6: if (f7 == 0) inst.op = Op::kOr; break;
        case 7: if (f7 == 0) inst.op = Op::kAnd; break;
        default: break;
      }
      return inst;
    }
    case kOpReg32: {
      if (f7 == 0b0000001) {
        switch (f3) {
          case 0: inst.op = Op::kMulw; break;
          case 4: inst.op = Op::kDivw; break;
          case 5: inst.op = Op::kDivuw; break;
          case 6: inst.op = Op::kRemw; break;
          case 7: inst.op = Op::kRemuw; break;
          default: break;
        }
        return inst;
      }
      switch (f3) {
        case 0: inst.op = f7 == 0b0100000 ? Op::kSubw
                          : f7 == 0       ? Op::kAddw
                                          : Op::kInvalid; break;
        case 1: if (f7 == 0) inst.op = Op::kSllw; break;
        case 5: inst.op = f7 == 0b0100000 ? Op::kSraw
                          : f7 == 0       ? Op::kSrlw
                                          : Op::kInvalid; break;
        default: break;
      }
      return inst;
    }
    case kOpAmo: {
      if (f3 != 2 && f3 != 3) return inst;  // only .w / .d widths
      const bool d = f3 == 3;
      switch (bits(w, 27, 5)) {
        case kF5Lr:
          if (inst.rs2 == 0) inst.op = d ? Op::kLrD : Op::kLrW;
          break;
        case kF5Sc: inst.op = d ? Op::kScD : Op::kScW; break;
        case kF5Swap: inst.op = d ? Op::kAmoSwapD : Op::kAmoSwapW; break;
        case kF5Add: inst.op = d ? Op::kAmoAddD : Op::kAmoAddW; break;
        case kF5Xor: inst.op = d ? Op::kAmoXorD : Op::kAmoXorW; break;
        case kF5And: inst.op = d ? Op::kAmoAndD : Op::kAmoAndW; break;
        case kF5Or: inst.op = d ? Op::kAmoOrD : Op::kAmoOrW; break;
        default: break;
      }
      return inst;
    }
    case kOpMiscMem:
      if (f3 == 0) inst.op = Op::kFence;
      return inst;
    case kOpSystem:
      if (w == 0x00000073) inst.op = Op::kEcall;
      if (w == 0x00100073) inst.op = Op::kEbreak;
      return inst;
    default:
      return inst;
  }
}

namespace {

std::uint32_t enc_r(std::uint32_t opc, std::uint32_t f3, std::uint32_t f7,
                    const Instruction& i) {
  return opc | (std::uint32_t{i.rd} << 7) | (f3 << 12) |
         (std::uint32_t{i.rs1} << 15) | (std::uint32_t{i.rs2} << 20) |
         (f7 << 25);
}
std::uint32_t enc_i(std::uint32_t opc, std::uint32_t f3,
                    const Instruction& i) {
  return opc | (std::uint32_t{i.rd} << 7) | (f3 << 12) |
         (std::uint32_t{i.rs1} << 15) |
         ((static_cast<std::uint32_t>(i.imm) & 0xFFF) << 20);
}
std::uint32_t enc_shift(std::uint32_t f3, std::uint32_t hi6, bool word,
                        const Instruction& i) {
  const std::uint32_t opc = word ? kOpImm32 : kOpImm;
  return opc | (std::uint32_t{i.rd} << 7) | (f3 << 12) |
         (std::uint32_t{i.rs1} << 15) |
         ((static_cast<std::uint32_t>(i.imm) & (word ? 0x1Fu : 0x3Fu)) << 20) |
         (hi6 << 26);
}
std::uint32_t enc_s(std::uint32_t f3, const Instruction& i) {
  const auto imm = static_cast<std::uint32_t>(i.imm);
  return kOpStore | ((imm & 0x1F) << 7) | (f3 << 12) |
         (std::uint32_t{i.rs1} << 15) | (std::uint32_t{i.rs2} << 20) |
         (((imm >> 5) & 0x7F) << 25);
}
std::uint32_t enc_b(std::uint32_t f3, const Instruction& i) {
  const auto imm = static_cast<std::uint32_t>(i.imm);
  return kOpBranch | (((imm >> 11) & 1) << 7) | (((imm >> 1) & 0xF) << 8) |
         (f3 << 12) | (std::uint32_t{i.rs1} << 15) |
         (std::uint32_t{i.rs2} << 20) | (((imm >> 5) & 0x3F) << 25) |
         (((imm >> 12) & 1) << 31);
}
std::uint32_t enc_u(std::uint32_t opc, const Instruction& i) {
  return opc | (std::uint32_t{i.rd} << 7) |
         (static_cast<std::uint32_t>(i.imm) & 0xFFFFF000u);
}
std::uint32_t enc_j(const Instruction& i) {
  const auto imm = static_cast<std::uint32_t>(i.imm);
  return kOpJal | (std::uint32_t{i.rd} << 7) | (((imm >> 12) & 0xFF) << 12) |
         (((imm >> 11) & 1) << 20) | (((imm >> 1) & 0x3FF) << 21) |
         (((imm >> 20) & 1) << 31);
}

}  // namespace

std::uint32_t encode(const Instruction& i) noexcept {
  switch (i.op) {
    case Op::kLui: return enc_u(kOpLui, i);
    case Op::kAuipc: return enc_u(kOpAuipc, i);
    case Op::kJal: return enc_j(i);
    case Op::kJalr: return enc_i(kOpJalr, 0, i);
    case Op::kBeq: return enc_b(0, i);
    case Op::kBne: return enc_b(1, i);
    case Op::kBlt: return enc_b(4, i);
    case Op::kBge: return enc_b(5, i);
    case Op::kBltu: return enc_b(6, i);
    case Op::kBgeu: return enc_b(7, i);
    case Op::kLb: return enc_i(kOpLoad, 0, i);
    case Op::kLh: return enc_i(kOpLoad, 1, i);
    case Op::kLw: return enc_i(kOpLoad, 2, i);
    case Op::kLd: return enc_i(kOpLoad, 3, i);
    case Op::kLbu: return enc_i(kOpLoad, 4, i);
    case Op::kLhu: return enc_i(kOpLoad, 5, i);
    case Op::kLwu: return enc_i(kOpLoad, 6, i);
    case Op::kSb: return enc_s(0, i);
    case Op::kSh: return enc_s(1, i);
    case Op::kSw: return enc_s(2, i);
    case Op::kSd: return enc_s(3, i);
    case Op::kAddi: return enc_i(kOpImm, 0, i);
    case Op::kSlti: return enc_i(kOpImm, 2, i);
    case Op::kSltiu: return enc_i(kOpImm, 3, i);
    case Op::kXori: return enc_i(kOpImm, 4, i);
    case Op::kOri: return enc_i(kOpImm, 6, i);
    case Op::kAndi: return enc_i(kOpImm, 7, i);
    case Op::kSlli: return enc_shift(1, 0, false, i);
    case Op::kSrli: return enc_shift(5, 0, false, i);
    case Op::kSrai: return enc_shift(5, 0b010000, false, i);
    case Op::kAdd: return enc_r(kOpReg, 0, 0, i);
    case Op::kSub: return enc_r(kOpReg, 0, 0b0100000, i);
    case Op::kSll: return enc_r(kOpReg, 1, 0, i);
    case Op::kSlt: return enc_r(kOpReg, 2, 0, i);
    case Op::kSltu: return enc_r(kOpReg, 3, 0, i);
    case Op::kXor: return enc_r(kOpReg, 4, 0, i);
    case Op::kSrl: return enc_r(kOpReg, 5, 0, i);
    case Op::kSra: return enc_r(kOpReg, 5, 0b0100000, i);
    case Op::kOr: return enc_r(kOpReg, 6, 0, i);
    case Op::kAnd: return enc_r(kOpReg, 7, 0, i);
    case Op::kAddiw: return enc_i(kOpImm32, 0, i);
    case Op::kSlliw: return enc_shift(1, 0, true, i);
    case Op::kSrliw: return enc_shift(5, 0, true, i);
    case Op::kSraiw: return enc_shift(5, 0b010000, true, i);
    case Op::kAddw: return enc_r(kOpReg32, 0, 0, i);
    case Op::kSubw: return enc_r(kOpReg32, 0, 0b0100000, i);
    case Op::kSllw: return enc_r(kOpReg32, 1, 0, i);
    case Op::kSrlw: return enc_r(kOpReg32, 5, 0, i);
    case Op::kSraw: return enc_r(kOpReg32, 5, 0b0100000, i);
    case Op::kFence: return kOpMiscMem;
    case Op::kEcall: return 0x00000073;
    case Op::kEbreak: return 0x00100073;
    case Op::kMul: return enc_r(kOpReg, 0, 1, i);
    case Op::kMulh: return enc_r(kOpReg, 1, 1, i);
    case Op::kMulhsu: return enc_r(kOpReg, 2, 1, i);
    case Op::kMulhu: return enc_r(kOpReg, 3, 1, i);
    case Op::kDiv: return enc_r(kOpReg, 4, 1, i);
    case Op::kDivu: return enc_r(kOpReg, 5, 1, i);
    case Op::kRem: return enc_r(kOpReg, 6, 1, i);
    case Op::kRemu: return enc_r(kOpReg, 7, 1, i);
    case Op::kMulw: return enc_r(kOpReg32, 0, 1, i);
    case Op::kDivw: return enc_r(kOpReg32, 4, 1, i);
    case Op::kDivuw: return enc_r(kOpReg32, 5, 1, i);
    case Op::kRemw: return enc_r(kOpReg32, 6, 1, i);
    case Op::kRemuw: return enc_r(kOpReg32, 7, 1, i);
    case Op::kLrW: return enc_r(kOpAmo, 2, kF5Lr << 2, i);
    case Op::kLrD: return enc_r(kOpAmo, 3, kF5Lr << 2, i);
    case Op::kScW: return enc_r(kOpAmo, 2, kF5Sc << 2, i);
    case Op::kScD: return enc_r(kOpAmo, 3, kF5Sc << 2, i);
    case Op::kAmoSwapW: return enc_r(kOpAmo, 2, kF5Swap << 2, i);
    case Op::kAmoSwapD: return enc_r(kOpAmo, 3, kF5Swap << 2, i);
    case Op::kAmoAddW: return enc_r(kOpAmo, 2, kF5Add << 2, i);
    case Op::kAmoAddD: return enc_r(kOpAmo, 3, kF5Add << 2, i);
    case Op::kAmoXorW: return enc_r(kOpAmo, 2, kF5Xor << 2, i);
    case Op::kAmoXorD: return enc_r(kOpAmo, 3, kF5Xor << 2, i);
    case Op::kAmoAndW: return enc_r(kOpAmo, 2, kF5And << 2, i);
    case Op::kAmoAndD: return enc_r(kOpAmo, 3, kF5And << 2, i);
    case Op::kAmoOrW: return enc_r(kOpAmo, 2, kF5Or << 2, i);
    case Op::kAmoOrD: return enc_r(kOpAmo, 3, kF5Or << 2, i);
    case Op::kInvalid: return 0;
  }
  return 0;
}

int register_number(const std::string& name) noexcept {
  static const std::array<const char*, 32> abi = {
      "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
      "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
      "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  for (int i = 0; i < 32; ++i) {
    if (name == abi[static_cast<std::size_t>(i)]) return i;
  }
  if (name == "fp") return 8;
  if (name.size() >= 2 && name[0] == 'x') {
    int v = 0;
    for (std::size_t k = 1; k < name.size(); ++k) {
      if (name[k] < '0' || name[k] > '9') return -1;
      v = v * 10 + (name[k] - '0');
    }
    return v < 32 ? v : -1;
  }
  return -1;
}

}  // namespace hmcc::riscv
