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
#include <exception>

#include "common/table.hpp"
#include "riscv/tracing.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"

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

}  // namespace

int main(int argc, char** argv) try {
  using namespace hmcc;
  desc::Args args(argc, argv);
  const system::SystemConfig platform = system::platform_from(args);
  const std::uint64_t iters = args.uint("iters", 2048, 1, 1u << 20);
  for (const char* key : {"trace_record", "trace_replay"}) {
    if (args.config().has(key)) {
      args.fail(std::string(key) + ": the RISC-V program makes the trace");
    }
  }
  if (!args.finish()) return 2;
  const std::uint32_t cores = platform.hierarchy.num_cores;

  std::string source = kGatherSource;
  const std::string key = "ITERS";
  source.replace(source.find(key), key.size(), std::to_string(iters));

  riscv::Assembler as;
  std::string error;
  auto prog = as.assemble(source, &error);
  if (!prog) {
    std::fprintf(stderr, "assembly failed: %s\n", error.c_str());
    return 1;
  }
  const auto traced = riscv::trace_program(*prog, cores);
  if (!traced.all_exited_cleanly) {
    std::fprintf(stderr, "program did not exit cleanly\n");
    return 1;
  }
  std::printf("gather kernel: %llu instructions, %llu memory accesses\n",
              static_cast<unsigned long long>(traced.instructions),
              static_cast<unsigned long long>(traced.trace.total_records()));

  Table table({"metric", "conventional MSHR", "memory coalescer"});
  system::SystemReport reports[2];
  const system::CoalescerMode modes[] = {system::CoalescerMode::kConventional,
                                         system::CoalescerMode::kFull};
  for (int m = 0; m < 2; ++m) {
    system::SystemConfig cfg = platform;
    system::apply_mode(cfg, modes[m]);
    system::System sys(cfg);
    reports[m] = sys.run(traced.trace);
  }
  const auto& b = reports[0];
  const auto& c = reports[1];
  table.add_row({"HMC requests", Table::fmt(b.memory_requests),
                 Table::fmt(c.memory_requests)});
  table.add_row({"coalescing efficiency",
                 Table::pct(b.coalescing_efficiency()),
                 Table::pct(c.coalescing_efficiency())});
  table.add_row({"runtime (cycles)", Table::fmt(b.runtime),
                 Table::fmt(c.runtime)});
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "\nsequential idx/out streams coalesce; the PRNG-driven gathers do "
      "not — the mixed profile of the paper's SG benchmark.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
