// RV64A extension: LR/SC and AMO semantics, trace shape, and assembly.
#include <gtest/gtest.h>

#include <vector>

#include "riscv/assembler.hpp"
#include "riscv/cpu.hpp"
#include "riscv/isa.hpp"

namespace hmcc::riscv {
namespace {

TEST(Atomics, DecodeEncodeRoundTrip) {
  for (const Op op : {Op::kLrW, Op::kLrD, Op::kScW, Op::kScD, Op::kAmoSwapW,
                      Op::kAmoSwapD, Op::kAmoAddW, Op::kAmoAddD, Op::kAmoXorW,
                      Op::kAmoXorD, Op::kAmoAndW, Op::kAmoAndD, Op::kAmoOrW,
                      Op::kAmoOrD}) {
    Instruction in{};
    in.op = op;
    in.rd = 10;
    in.rs1 = 11;
    in.rs2 = (op == Op::kLrW || op == Op::kLrD) ? 0 : 12;
    const Instruction out = decode(encode(in));
    EXPECT_EQ(out.op, in.op) << "op " << static_cast<int>(op);
    EXPECT_EQ(out.rd, in.rd);
    EXPECT_EQ(out.rs1, in.rs1);
    EXPECT_EQ(out.rs2, in.rs2);
    EXPECT_TRUE(out.is_atomic());
  }
  // amoadd.w a0, a2, (a1) reference encoding: 0x00c5a52f
  EXPECT_EQ(decode(0x00C5A52F).op, Op::kAmoAddW);
}

struct Run {
  SparseMemory mem;
  std::uint64_t regs[32];
  std::vector<std::tuple<Addr, std::uint32_t, bool>> accesses;
};

Run run_asm(const std::string& body) {
  Assembler as;
  std::string error;
  auto prog = as.assemble("_start:\n" + body + "\n    ebreak\n", &error);
  EXPECT_TRUE(prog.has_value()) << error;
  Run r{};
  if (!prog) return r;
  prog->load_into(r.mem);
  Rv64Core cpu(r.mem);
  cpu.set_trace_hook([&r](Addr a, std::uint32_t n, bool st, bool fence) {
    if (!fence) r.accesses.emplace_back(a, n, st);
  });
  cpu.set_pc(prog->symbol("_start").value_or(prog->base));
  cpu.run(100000);
  EXPECT_TRUE(cpu.halted());
  for (unsigned i = 0; i < 32; ++i) r.regs[i] = cpu.reg(i);
  return r;
}

TEST(Atomics, AmoAddReturnsOldAndStoresSum) {
  auto r = run_asm(R"(
    li   a1, 0x4000
    li   t0, 40
    sd   t0, 0(a1)
    li   a2, 2
    amoadd.d a0, a2, (a1)
  )");
  EXPECT_EQ(r.regs[10], 40u);                  // rd = old value
  EXPECT_EQ(r.mem.read(0x4000, 8), 42u);       // memory = old + rs2
  // Trace shape: the sd plus the AMO's load+store pair.
  ASSERT_EQ(r.accesses.size(), 3u);
  EXPECT_EQ(r.accesses[1],
            std::make_tuple(Addr{0x4000}, 8u, false));  // AMO load
  EXPECT_EQ(r.accesses[2],
            std::make_tuple(Addr{0x4000}, 8u, true));   // AMO store
}

TEST(Atomics, AmoSwapAndBitwiseOps) {
  auto r = run_asm(R"(
    li   a1, 0x4000
    li   t0, 0xF0
    sd   t0, 0(a1)
    li   a2, 0x0F
    amoor.d  a0, a2, (a1)    # mem: 0xFF, a0 = 0xF0
    li   a3, 0x3C
    amoand.d a4, a3, (a1)    # mem: 0x3C, a4 = 0xFF
    li   a5, 0xFF
    amoxor.d a6, a5, (a1)    # mem: 0xC3, a6 = 0x3C
    li   s0, 7
    amoswap.d s1, s0, (a1)   # mem: 7, s1 = 0xC3
  )");
  EXPECT_EQ(r.regs[10], 0xF0u);
  EXPECT_EQ(r.regs[14], 0xFFu);
  EXPECT_EQ(r.regs[16], 0x3Cu);
  EXPECT_EQ(r.regs[9], 0xC3u);
  EXPECT_EQ(r.mem.read(0x4000, 8), 7u);
}

TEST(Atomics, AmoWordSignExtends) {
  auto r = run_asm(R"(
    li   a1, 0x4000
    li   t0, 0xFFFFFFFF
    sw   t0, 0(a1)
    li   a2, 1
    amoadd.w a0, a2, (a1)
  )");
  EXPECT_EQ(r.regs[10], ~0ULL);            // old value sign-extended
  EXPECT_EQ(r.mem.read(0x4000, 4), 0u);    // wrapped to 0
}

TEST(Atomics, LrScSucceedsOnMatchingReservation) {
  auto r = run_asm(R"(
    li   a1, 0x4000
    li   t0, 5
    sd   t0, 0(a1)
    lr.d a0, (a1)          # a0 = 5, reserve
    addi a0, a0, 1
    sc.d a2, a0, (a1)      # succeeds: a2 = 0
  )");
  EXPECT_EQ(r.regs[12], 0u);
  EXPECT_EQ(r.mem.read(0x4000, 8), 6u);
}

TEST(Atomics, ScFailsWithoutReservation) {
  auto r = run_asm(R"(
    li   a1, 0x4000
    li   a0, 9
    sc.d a2, a0, (a1)      # no reservation: a2 = 1, no store
  )");
  EXPECT_EQ(r.regs[12], 1u);
  EXPECT_EQ(r.mem.read(0x4000, 8), 0u);
  EXPECT_TRUE(r.accesses.empty());  // failed SC performs no memory access
}

TEST(Atomics, ScFailsOnDifferentAddress) {
  auto r = run_asm(R"(
    li   a1, 0x4000
    li   a3, 0x5000
    lr.d a0, (a1)
    li   a0, 9
    sc.d a2, a0, (a3)      # reservation was for a1: fails
  )");
  EXPECT_EQ(r.regs[12], 1u);
  EXPECT_EQ(r.mem.read(0x5000, 8), 0u);
}

TEST(Atomics, AtomicTallyLoop) {
  // The EP/IS-style tally kernel: atomic increments over a small histogram.
  auto r = run_asm(R"(
    li   a1, 0x8000        # histogram base
    li   t0, 64            # iterations
    li   t2, 1
loop:
    andi t1, t0, 0x38      # bucket = (i & 7) * 8
    add  t3, a1, t1
    amoadd.d zero, t2, (t3)
    addi t0, t0, -1
    bnez t0, loop
  )");
  // 64 increments spread over 8 buckets -> each bucket holds 8.
  for (Addr b = 0x8000; b < 0x8040; b += 8) {
    EXPECT_EQ(r.mem.read(b, 8), 8u) << b;
  }
  EXPECT_EQ(r.accesses.size(), 128u);  // 64 RMW pairs
}

TEST(Atomics, AssemblerRejectsOffsets) {
  Assembler as;
  std::string error;
  EXPECT_FALSE(as.assemble("_start:\n  amoadd.d a0, a1, 8(a2)\n", &error));
  EXPECT_NE(error.find("bare"), std::string::npos);
  EXPECT_FALSE(as.assemble("_start:\n  lr.w a0, 4(a1)\n", &error));
}

}  // namespace
}  // namespace hmcc::riscv
