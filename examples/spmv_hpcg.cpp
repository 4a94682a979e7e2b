// Domain example: sparse matrix-vector multiplication (the HPCG pattern the
// paper's introduction motivates) under all four miss-handling datapaths.
//
// Demonstrates the Figure 8 configuration sweep on one workload, plus the
// request-size mix and bank-conflict telemetry that explain WHY coalescing
// helps: fewer, larger packets mean fewer row activations in the HMC.
//
// Usage: spmv_hpcg [accesses=30000] [seed=1], plus every platform key
// (mode= is swept, so each row overrides it). A bad argument exits 2.
#include <cstdio>
#include <exception>

#include "common/table.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"

int main(int argc, char** argv) try {
  using namespace hmcc;
  desc::Args args(argc, argv);
  const system::SystemConfig platform = system::platform_from(args);
  workloads::WorkloadParams params;
  params.accesses_per_core = 30000;
  args.overlay(workloads::workload_knobs(), params);
  if (!args.finish()) return 2;

  const system::CoalescerMode modes[] = {
      system::CoalescerMode::kNone, system::CoalescerMode::kConventional,
      system::CoalescerMode::kDmcOnly, system::CoalescerMode::kFull};

  Table table({"datapath", "HMC requests", "coalescing eff", "64/128/256B",
               "row activations", "bank conflicts", "runtime (cycles)"});
  std::uint64_t baseline_runtime = 0;
  for (const auto mode : modes) {
    system::SystemConfig cfg = platform;
    system::apply_mode(cfg, mode);
    const auto r = system::run_workload("hpcg", cfg, params);
    const auto& rep = r.report;
    if (mode == system::CoalescerMode::kConventional) {
      baseline_runtime = rep.runtime;
    }
    table.add_row(
        {system::to_string(mode), Table::fmt(rep.memory_requests),
         Table::pct(rep.coalescing_efficiency()),
         Table::fmt(rep.coalescer.size_64) + "/" +
             Table::fmt(rep.coalescer.size_128) + "/" +
             Table::fmt(rep.coalescer.size_256),
         Table::fmt(rep.hmc.row_activations),
         Table::fmt(rep.hmc.bank_conflicts), Table::fmt(rep.runtime)});
    if (mode == system::CoalescerMode::kFull && baseline_runtime) {
      std::printf("HPCG SpMV: two-phase coalescer removes %.2f%% of HMC "
                  "requests and improves the memory phase by %.2f%%\n\n",
                  rep.coalescing_efficiency() * 100.0,
                  (static_cast<double>(baseline_runtime) /
                       static_cast<double>(rep.runtime) -
                   1.0) *
                      100.0);
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
