#include "riscv/isa.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hmcc::riscv {
namespace {

TEST(Isa, DecodeKnownWords) {
  // addi a0, a0, 1  == 0x00150513
  Instruction i = decode(0x00150513);
  EXPECT_EQ(i.op, Op::kAddi);
  EXPECT_EQ(i.rd, 10);
  EXPECT_EQ(i.rs1, 10);
  EXPECT_EQ(i.imm, 1);

  // ld a1, 8(sp) == 0x00813583
  i = decode(0x00813583);
  EXPECT_EQ(i.op, Op::kLd);
  EXPECT_EQ(i.rd, 11);
  EXPECT_EQ(i.rs1, 2);
  EXPECT_EQ(i.imm, 8);
  EXPECT_EQ(i.access_bytes(), 8u);

  // sd a1, -16(sp) == 0xfeb13823
  i = decode(0xFEB13823);
  EXPECT_EQ(i.op, Op::kSd);
  EXPECT_EQ(i.rs1, 2);
  EXPECT_EQ(i.rs2, 11);
  EXPECT_EQ(i.imm, -16);

  // beq a0, zero, +16 == 0x00050863
  i = decode(0x00050863);
  EXPECT_EQ(i.op, Op::kBeq);
  EXPECT_EQ(i.imm, 16);

  // lui t0, 0x12345 == 0x123452b7
  i = decode(0x123452B7);
  EXPECT_EQ(i.op, Op::kLui);
  EXPECT_EQ(i.rd, 5);
  EXPECT_EQ(i.imm, 0x12345000);

  // jal ra, +2048 == 0x001000ef  (imm[11] lands in bit 20)
  i = decode(0x001000EF);
  EXPECT_EQ(i.op, Op::kJal);
  EXPECT_EQ(i.rd, 1);
  EXPECT_EQ(i.imm, 2048);

  // mul a2, a3, a4 == 0x02e68633
  i = decode(0x02E68633);
  EXPECT_EQ(i.op, Op::kMul);

  EXPECT_EQ(decode(0x00000073).op, Op::kEcall);
  EXPECT_EQ(decode(0x00100073).op, Op::kEbreak);
}

TEST(Isa, InvalidWordsRejected) {
  EXPECT_FALSE(decode(0x00000000).valid());
  EXPECT_FALSE(decode(0xFFFFFFFF).valid());
  // BRANCH with funct3 == 2 is unassigned.
  EXPECT_FALSE(decode(0x00002063 | 0x63).valid());
}

TEST(Isa, EncodeDecodeRoundTripAllOps) {
  Xoshiro256 rng(3);
  for (int opi = 1; opi <= static_cast<int>(Op::kRemuw); ++opi) {
    const Op op = static_cast<Op>(opi);
    for (int trial = 0; trial < 50; ++trial) {
      Instruction in{};
      in.op = op;
      in.rd = static_cast<std::uint8_t>(rng.below(32));
      in.rs1 = static_cast<std::uint8_t>(rng.below(32));
      in.rs2 = static_cast<std::uint8_t>(rng.below(32));
      switch (op) {
        case Op::kLui: case Op::kAuipc:
          in.imm = static_cast<std::int64_t>(
              static_cast<std::int32_t>(rng() & 0xFFFFF000u));
          break;
        case Op::kJal:
          in.imm = (static_cast<std::int64_t>(rng.below(1 << 20)) -
                    (1 << 19)) & ~1LL;
          break;
        case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
        case Op::kBltu: case Op::kBgeu:
          in.imm = (static_cast<std::int64_t>(rng.below(1 << 12)) -
                    (1 << 11)) & ~1LL;
          break;
        case Op::kSlli: case Op::kSrli: case Op::kSrai:
          in.imm = static_cast<std::int64_t>(rng.below(64));
          break;
        case Op::kSlliw: case Op::kSrliw: case Op::kSraiw:
          in.imm = static_cast<std::int64_t>(rng.below(32));
          break;
        case Op::kFence: case Op::kEcall: case Op::kEbreak:
          in.rd = in.rs1 = in.rs2 = 0;
          in.imm = 0;
          break;
        default:
          in.imm = static_cast<std::int64_t>(rng.below(1 << 12)) - (1 << 11);
          break;
      }
      // R-type ops carry no immediate.
      if ((op >= Op::kAdd && op <= Op::kAnd) ||
          (op >= Op::kAddw && op <= Op::kSraw) ||
          (op >= Op::kMul && op <= Op::kRemuw)) {
        in.imm = 0;
      }
      const std::uint32_t word = encode(in);
      const Instruction out = decode(word);
      ASSERT_EQ(out.op, in.op) << "op " << static_cast<int>(op);
      // rd is only architectural outside stores/branches (their rd field
      // bits carry immediate pieces); rs1/rs2 only outside U/J formats.
      if (!in.is_store() && !in.is_branch() && op != Op::kFence &&
          op != Op::kEcall && op != Op::kEbreak) {
        EXPECT_EQ(out.rd, in.rd) << "op " << static_cast<int>(op);
      }
      if (in.is_store() || in.is_branch()) {
        EXPECT_EQ(out.rs1, in.rs1) << "op " << static_cast<int>(op);
        EXPECT_EQ(out.rs2, in.rs2) << "op " << static_cast<int>(op);
      }
      EXPECT_EQ(out.imm, in.imm)
          << "op " << static_cast<int>(op) << " imm " << in.imm;
    }
  }
}

TEST(Isa, RegisterNames) {
  EXPECT_EQ(register_number("zero"), 0);
  EXPECT_EQ(register_number("ra"), 1);
  EXPECT_EQ(register_number("sp"), 2);
  EXPECT_EQ(register_number("a0"), 10);
  EXPECT_EQ(register_number("t6"), 31);
  EXPECT_EQ(register_number("x17"), 17);
  EXPECT_EQ(register_number("fp"), 8);
  EXPECT_EQ(register_number("bogus"), -1);
  EXPECT_EQ(register_number("x32"), -1);
}

TEST(Isa, ClassPredicates) {
  EXPECT_TRUE(decode(0x00813583).is_load());   // ld
  EXPECT_TRUE(decode(0xFEB13823).is_store());  // sd
  EXPECT_TRUE(decode(0x00050863).is_branch()); // beq
  EXPECT_FALSE(decode(0x00150513).is_load());  // addi
}

}  // namespace
}  // namespace hmcc::riscv
