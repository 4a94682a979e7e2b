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
#include <exception>

#include "common/table.hpp"
#include "riscv/tracing.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"

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

}  // namespace

int main(int argc, char** argv) try {
  using namespace hmcc;
  desc::Args args(argc, argv);
  const system::SystemConfig platform = system::platform_from(args);
  const std::uint64_t iters = args.uint("iters", 4096, 1, 1u << 20);
  for (const char* key : {"trace_record", "trace_replay"}) {
    if (args.config().has(key)) {
      args.fail(std::string(key) + ": the RISC-V program makes the trace");
    }
  }
  if (!args.finish()) return 2;
  const std::uint32_t cores = platform.hierarchy.num_cores;

  // Substitute the chunk count into the source (poor man's preprocessor).
  std::string source = kTriadSource;
  const std::string key = "ITERS";
  source.replace(source.find(key), key.size(), std::to_string(iters));

  riscv::Assembler as;
  std::string error;
  auto prog = as.assemble(source, &error);
  if (!prog) {
    std::fprintf(stderr, "assembly failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("assembled %zu bytes at 0x%llx\n", prog->image.size(),
              static_cast<unsigned long long>(prog->base));

  const auto traced = riscv::trace_program(*prog, cores);
  if (!traced.all_exited_cleanly) {
    std::fprintf(stderr, "program did not exit cleanly\n");
    return 1;
  }
  const trace::TraceProfile profile = trace::profile(traced.trace);
  std::printf(
      "executed %llu instructions on %u cores; %llu memory accesses "
      "(%.1f%% stores), %llu distinct lines\n",
      static_cast<unsigned long long>(traced.instructions), cores,
      static_cast<unsigned long long>(profile.loads + profile.stores),
      profile.store_fraction() * 100.0,
      static_cast<unsigned long long>(profile.distinct_lines));

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
  table.add_row({"LLC misses + write-backs",
                 Table::fmt(b.llc_misses + b.writebacks),
                 Table::fmt(c.llc_misses + c.writebacks)});
  table.add_row({"HMC requests", Table::fmt(b.memory_requests),
                 Table::fmt(c.memory_requests)});
  table.add_row({"coalescing efficiency",
                 Table::pct(b.coalescing_efficiency()),
                 Table::pct(c.coalescing_efficiency())});
  table.add_row({"256B packets", Table::fmt(b.coalescer.size_256),
                 Table::fmt(c.coalescer.size_256)});
  table.add_row({"HMC bytes on the wire", Table::fmt(b.hmc.transferred_bytes),
                 Table::fmt(c.hmc.transferred_bytes)});
  table.add_row({"runtime (cycles)", Table::fmt(b.runtime),
                 Table::fmt(c.runtime)});
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nmemory-phase speedup: %.2fx\n",
              c.runtime ? static_cast<double>(b.runtime) /
                              static_cast<double>(c.runtime)
                        : 0.0);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
