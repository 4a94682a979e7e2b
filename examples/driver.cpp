#include "driver.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/table.hpp"
#include "system/config_bridge.hpp"

namespace hmcc::examples {

void print_report(const system::SystemReport& b,
                  const system::SystemReport& c) {
  Table table({"metric", "conventional MSHR", "memory coalescer"});
  table.add_row({"CPU accesses", Table::fmt(b.cpu_accesses),
                 Table::fmt(c.cpu_accesses)});
  table.add_row({"LLC misses + write-backs",
                 Table::fmt(b.llc_misses + b.writebacks),
                 Table::fmt(c.llc_misses + c.writebacks)});
  table.add_row({"HMC requests", Table::fmt(b.memory_requests),
                 Table::fmt(c.memory_requests)});
  table.add_row({"coalescing efficiency",
                 Table::pct(b.coalescing_efficiency()),
                 Table::pct(c.coalescing_efficiency())});
  table.add_row({"HMC bytes transferred", Table::fmt(b.hmc.transferred_bytes),
                 Table::fmt(c.hmc.transferred_bytes)});
  table.add_row({"bandwidth efficiency (payload)",
                 Table::pct(b.payload_bandwidth_efficiency()),
                 Table::pct(c.payload_bandwidth_efficiency())});
  table.add_row({"avg HMC latency (cycles)", Table::fmt(b.hmc.latency.mean()),
                 Table::fmt(c.hmc.latency.mean())});
  table.add_row({"runtime (cycles)", Table::fmt(b.runtime),
                 Table::fmt(c.runtime)});
  table.add_row({"64B / 128B / 256B packets",
                 Table::fmt(b.coalescer.size_64) + " / " +
                     Table::fmt(b.coalescer.size_128) + " / " +
                     Table::fmt(b.coalescer.size_256),
                 Table::fmt(c.coalescer.size_64) + " / " +
                     Table::fmt(c.coalescer.size_128) + " / " +
                     Table::fmt(c.coalescer.size_256)});
  table.add_row({"bypassed / CRQ merges",
                 Table::fmt(b.coalescer.bypassed) + " / " +
                     Table::fmt(b.coalescer.crq_merges),
                 Table::fmt(c.coalescer.bypassed) + " / " +
                     Table::fmt(c.coalescer.crq_merges)});
  std::fputs(table.to_ascii().c_str(), stdout);
}

int run_riscv_example(int argc, char** argv, const RiscvKernel& kernel) try {
  desc::Args args(argc, argv);
  const system::SystemConfig platform = system::platform_from(args);
  const std::uint64_t iters =
      args.uint("iters", kernel.default_iters, 1, 1u << 20);
  for (const char* key : {"trace_record", "trace_replay"}) {
    if (args.config().has(key)) {
      args.fail(std::string(key) + ": the RISC-V program makes the trace");
    }
  }
  if (!args.finish()) return 2;
  const std::uint32_t cores = platform.hierarchy.num_cores;

  // Substitute the chunk count into the source (poor man's preprocessor).
  std::string source = kernel.source;
  const std::string key = "ITERS";
  source.replace(source.find(key), key.size(), std::to_string(iters));

  riscv::Assembler as;
  std::string error;
  const auto prog = as.assemble(source, &error);
  if (!prog) {
    std::fprintf(stderr, "assembly failed: %s\n", error.c_str());
    return 1;
  }
  const auto traced = riscv::trace_program(*prog, cores);
  if (!traced.all_exited_cleanly) {
    std::fprintf(stderr, "program did not exit cleanly\n");
    return 1;
  }
  kernel.describe(*prog, traced, cores);

  system::SystemReport reports[2];
  const system::CoalescerMode modes[] = {system::CoalescerMode::kConventional,
                                         system::CoalescerMode::kFull};
  for (int m = 0; m < 2; ++m) {
    system::SystemConfig cfg = platform;
    system::apply_mode(cfg, modes[m]);
    system::System sys(cfg);
    reports[m] = sys.run(traced.trace);
    if (!reports[m].drained) {
      throw std::runtime_error(std::string(system::to_string(modes[m])) +
                               ": the run did not drain");
    }
  }
  print_report(reports[0], reports[1]);
  kernel.conclude(reports[0], reports[1]);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

}  // namespace hmcc::examples
