// End-to-end reproduction of the paper's toolchain on a real program:
//
//   RV64 assembly  ->  in-repo assembler  ->  RV64IM cores (SPMD)  ->
//   memory traces  ->  caches + memory coalescer  ->  HMC device.
//
// The program is a STREAM-style triad a[i] = b[i] + s*c[i] where the twelve
// cores take one cache line of elements each, round-robin — the cyclic
// OpenMP schedule whose aggregated misses the coalescer was built for.
//
// Usage: riscv_stream_triad [iters=4096] [cores=12], plus every platform
// key but trace_record= and trace_replay= (the program makes the trace).
// mode= is swept, so each column overrides it. A bad argument exits 2.
#include <cstdio>

#include "driver.hpp"

namespace {

// SPMD triad: a0 = core id, a1 = core count (set by trace_program).
// Chunks of 8 doubles; chunk c*k+id belongs to this core.
constexpr const char* kTriadSource = R"(
    .org 0x10000
_start:
    li   s0, 0x40000000      # a
    li   s1, 0x42000000      # b
    li   s2, 0x44000000      # c
    li   s3, ITERS           # total chunks
    mv   t0, a0              # chunk = core id
loop:
    bge  t0, s3, done
    slli t1, t0, 6           # byte offset of chunk (8 doubles)
    add  t2, s1, t1          # &b[chunk]
    add  t3, s2, t1          # &c[chunk]
    add  t4, s0, t1          # &a[chunk]
    li   t5, 8               # elements per chunk
elem:
    ld   t6, 0(t2)
    ld   s4, 0(t3)
    add  t6, t6, s4          # (stand-in for fused multiply-add)
    sd   t6, 0(t4)
    addi t2, t2, 8
    addi t3, t3, 8
    addi t4, t4, 8
    addi t5, t5, -1
    bnez t5, elem
    add  t0, t0, a1          # next cyclic chunk
    j    loop
done:
    fence
    li   a7, 93
    li   a0, 0
    ecall
)";

void describe(const hmcc::riscv::AssembledProgram& prog,
              const hmcc::riscv::TraceProgramResult& traced,
              std::uint32_t cores) {
  std::printf("assembled %zu bytes at 0x%llx\n", prog.image.size(),
              static_cast<unsigned long long>(prog.base));
  const hmcc::trace::TraceProfile profile = hmcc::trace::profile(traced.trace);
  std::printf(
      "executed %llu instructions on %u cores; %llu memory accesses "
      "(%.1f%% stores), %llu distinct lines\n",
      static_cast<unsigned long long>(traced.instructions), cores,
      static_cast<unsigned long long>(profile.loads + profile.stores),
      profile.store_fraction() * 100.0,
      static_cast<unsigned long long>(profile.distinct_lines));
}

void conclude(const hmcc::system::SystemReport& b,
              const hmcc::system::SystemReport& c) {
  std::printf("\nmemory-phase speedup: %.2fx\n",
              c.runtime ? static_cast<double>(b.runtime) /
                              static_cast<double>(c.runtime)
                        : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  return hmcc::examples::run_riscv_example(
      argc, argv, {kTriadSource, 4096, describe, conclude});
}
