// Second end-to-end RISC-V scenario: a gather kernel with a data-dependent
// access pattern (out[i] = table[idx[i] & mask]), the Scatter/Gather shape
// the paper's suite opens with. Unlike the triad example the gather
// addresses are computed by the PROGRAM (an xorshift PRNG in assembly), so
// the memory trace is genuinely produced by executed RV64 instructions.
//
// Usage: riscv_scatter_gather [iters=2048] [cores=12], plus every platform
// key but trace_record= and trace_replay= (the program makes the trace).
// mode= is swept, so each column overrides it. A bad argument exits 2.
#include <cstdio>

#include "driver.hpp"

namespace {

// a0 = core id, a1 = core count. Each core handles chunk (k*P + id) of 8
// indices; gather positions come from a per-core xorshift64 stream, masked
// into a 1 MB table.
constexpr const char* kGatherSource = R"(
    .org 0x10000
_start:
    li   s0, 0x50000000      # idx array (sequential reads)
    li   s1, 0x52000000      # gather table
    li   s2, 0x56000000      # out array (sequential writes)
    li   s3, ITERS           # total chunks
    li   s4, 0xFFFF8         # table byte mask (1MB: LLC-resident after warmup)
    addi s5, a0, 1
    slli s5, s5, 13
    xori s5, s5, 0x7ff       # per-core xorshift seed
    mv   t0, a0              # chunk = core id
chunk_loop:
    bge  t0, s3, done
    slli t1, t0, 6           # chunk byte offset (8 x 8B)
    add  t2, s0, t1          # &idx[chunk*8]
    add  t3, s2, t1          # &out[chunk*8]
    li   t4, 8               # elements per chunk
elem_loop:
    ld   t5, 0(t2)           # sequential idx read
    # xorshift64 step for the gather position
    slli t6, s5, 13
    xor  s5, s5, t6
    srli t6, s5, 7
    xor  s5, s5, t6
    slli t6, s5, 17
    xor  s5, s5, t6
    and  t6, s5, s4          # table offset
    add  t6, s1, t6
    ld   t6, 0(t6)           # the gather
    add  t6, t6, t5
    sd   t6, 0(t3)           # sequential out write
    addi t2, t2, 8
    addi t3, t3, 8
    addi t4, t4, -1
    bnez t4, elem_loop
    add  t0, t0, a1          # next cyclic chunk
    j    chunk_loop
done:
    li   a7, 93
    li   a0, 0
    ecall
)";

void describe(const hmcc::riscv::AssembledProgram& /*prog*/,
              const hmcc::riscv::TraceProgramResult& traced,
              std::uint32_t /*cores*/) {
  std::printf("gather kernel: %llu instructions, %llu memory accesses\n",
              static_cast<unsigned long long>(traced.instructions),
              static_cast<unsigned long long>(traced.trace.total_records()));
}

void conclude(const hmcc::system::SystemReport& /*conventional*/,
              const hmcc::system::SystemReport& /*coalescer*/) {
  std::printf(
      "\nsequential idx/out streams coalesce; the PRNG-driven gathers do "
      "not — the mixed profile of the paper's SG benchmark.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return hmcc::examples::run_riscv_example(
      argc, argv, {kGatherSource, 2048, describe, conclude});
}
