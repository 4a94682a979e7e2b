// Figure 1: bandwidth efficiency of HMC request packets.
//
// Paper: as the request size grows from 16 B to 256 B, bandwidth efficiency
// rises from 33.33% to 88.89% while control overhead falls from 66.67% to
// 11.11%. Pure packet arithmetic — every transaction carries 32 B of
// control FLITs.
#include "suite/benches.hpp"

#include "hmc/packet.hpp"

namespace hmcc::bench {

SuiteBench make_fig01() {
  SuiteBench b;
  b.meta.name = "fig01";
  b.meta.title = "Figure 1: Bandwidth Efficiency of HMC Packets";
  b.meta.paper_note = "paper endpoints: 33.33% @16B -> 88.89% @256B";
  // Pure packet arithmetic, but still expressed as one task so every
  // registered bench goes through the same task->format pipeline (the suite
  // scheduler never special-cases empty task lists).
  b.tasks = [](const BenchEnv&) {
    std::vector<SuiteTask> tasks;
    tasks.push_back([] {
      Table table({"request size (B)", "transferred (B)",
                   "bandwidth efficiency", "control overhead"});
      for (std::uint32_t size = 16; size <= 256; size += 16) {
        if (size > 128 && size != 256) continue;  // HMC 2.1 command gap
        table.add_row({Table::fmt(std::uint64_t{size}),
                       Table::fmt(std::uint64_t{size} +
                                  hmcspec::kControlBytesPerTransaction),
                       Table::pct(hmc::bandwidth_efficiency(size)),
                       Table::pct(hmc::control_overhead(size))});
      }
      return std::any(std::move(table));
    });
    return tasks;
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    return result_as<Table>(results[0]);
  };
  return b;
}

}  // namespace hmcc::bench
