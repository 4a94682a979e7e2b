// What the example programs share: the conventional-MSHR vs memory-coalescer
// report that quickstart and the RISC-V examples print, and the RISC-V
// examples' assemble -> trace -> run-both-modes driver.
#pragma once

#include <cstdint>

#include "riscv/tracing.hpp"
#include "system/system.hpp"

namespace hmcc::examples {

/// Print the two runs side by side as an ASCII table.
void print_report(const system::SystemReport& conventional,
                  const system::SystemReport& coalescer);

/// An SPMD RV64 kernel. a0 holds the core id and a1 the core count; the
/// source's ITERS placeholder becomes the iters= value.
struct RiscvKernel {
  const char* source;
  std::uint64_t default_iters;
  /// Prints the lines before the report.
  void (*describe)(const riscv::AssembledProgram& prog,
                   const riscv::TraceProgramResult& traced,
                   std::uint32_t cores);
  /// Prints the lines after the report.
  void (*conclude)(const system::SystemReport& conventional,
                   const system::SystemReport& coalescer);
};

/// A RISC-V example's whole program. Reads iters= and every platform key
/// but trace_record= and trace_replay= (the program makes the trace);
/// mode= is swept, so each run overrides it. Assembles @p kernel, traces it
/// on cores= cores, runs the trace under the conventional MSHRs and under
/// the memory coalescer, and prints the report. Returns the exit code: 2
/// for a bad argument, 1 for any other failure.
int run_riscv_example(int argc, char** argv, const RiscvKernel& kernel);

}  // namespace hmcc::examples
