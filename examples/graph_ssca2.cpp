// Domain example: SSCA2-style graph traversal, sweeping the coalescer's
// window size and timeout to show how the paper's design parameters behave
// on an irregular workload (the design-space the paper's §3.3/§4.1 discuss).
//
// Usage: graph_ssca2 [accesses=20000] [seed=1], plus every platform key
// (window= and timeout= are swept, so each row overrides the one it
// sweeps). A bad argument exits 2.
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
  params.accesses_per_core = 20000;
  args.overlay(workloads::workload_knobs(), params);
  if (!args.finish()) return 2;

  std::printf("SSCA2 graph traversal: window-size sweep (n, timeout=%llu)\n",
              static_cast<unsigned long long>(platform.coalescer.timeout));
  Table by_window({"window n", "coalescing eff", "front-end latency (ns)",
                   "runtime (cycles)"});
  for (std::uint32_t window : {4u, 8u, 16u, 32u}) {
    system::SystemConfig cfg = platform;
    cfg.coalescer.window = window;
    system::apply_mode(cfg, system::CoalescerMode::kFull);
    const auto r = system::run_workload("ssca2", cfg, params);
    by_window.add_row(
        {Table::fmt(std::uint64_t{window}),
         Table::pct(r.report.coalescing_efficiency()),
         Table::fmt(r.report.coalescer.front_latency.mean() *
                        arch::kNsPerCycle,
                    2),
         Table::fmt(r.report.runtime)});
  }
  std::fputs(by_window.to_ascii().c_str(), stdout);

  std::printf("\ntimeout sweep (n=%u)\n", platform.coalescer.window);
  Table by_timeout({"timeout (cycles)", "coalescing eff",
                    "front-end latency (ns)", "runtime (cycles)"});
  for (Cycle timeout : {8u, 16u, 24u, 48u, 96u}) {
    system::SystemConfig cfg = platform;
    cfg.coalescer.timeout = timeout;
    system::apply_mode(cfg, system::CoalescerMode::kFull);
    const auto r = system::run_workload("ssca2", cfg, params);
    by_timeout.add_row(
        {Table::fmt(std::uint64_t{timeout}),
         Table::pct(r.report.coalescing_efficiency()),
         Table::fmt(r.report.coalescer.front_latency.mean() *
                        arch::kNsPerCycle,
                    2),
         Table::fmt(r.report.runtime)});
  }
  std::fputs(by_timeout.to_ascii().c_str(), stdout);
  std::printf(
      "\nthe paper's choice (n=16, timeout ~= average coalescing latency) "
      "balances batching against added latency (SS3.3, Fig 14)\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
