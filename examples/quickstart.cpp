// Quickstart: run one workload through the full simulated platform with the
// memory coalescer on and off, and print the headline metrics the paper
// reports (coalescing efficiency, bandwidth efficiency, speedup).
//
// Usage: quickstart [workload=stream] [accesses=20000] [seed=1]
//        [metrics_out=PATH]   write the coalesced run's Prometheus counters
//        [trace_json=PATH]    write a chrome://tracing span file of the
//                             coalesced run
//        plus every platform key (mlp= timeout= window= llc_mshrs= ...,
//        system/config_bridge.hpp) and workload key (warps= ...); mode= is
//        swept, so the two runs override it. A bad argument exits 2.
#include <cstdio>
#include <exception>

#include "common/file_io.hpp"
#include "common/table.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"

int main(int argc, char** argv) try {
  using namespace hmcc;

  desc::Args args(argc, argv);
  const system::SystemConfig base = system::platform_from(args);
  workloads::WorkloadParams params;
  params.accesses_per_core = 20000;
  args.overlay(workloads::workload_knobs(), params);
  const std::string workload = args.text("workload", "stream");
  const std::string metrics_out = args.text("metrics_out", "");
  if (!workloads::make_workload(workload)) {
    args.fail("workload: unknown workload '" + workload + "'");
  }
  if (!args.finish()) return 2;

  std::printf("hmc-coalescer quickstart: workload '%s', %llu accesses/core\n",
              workload.c_str(),
              static_cast<unsigned long long>(params.accesses_per_core));

  Table table({"metric", "conventional MSHR", "memory coalescer"});
  system::SystemConfig conv = base;
  system::apply_mode(conv, system::CoalescerMode::kConventional);
  conv.obs.trace_json.clear();  // the trace covers the coalesced run only
  system::SystemConfig full = base;
  system::apply_mode(full, system::CoalescerMode::kFull);
  full.obs.metrics = full.obs.metrics || !metrics_out.empty();
  const auto baseline = system::run_workload(workload, conv, params);
  const auto coalesced = system::run_workload(workload, full, params);

  const auto& b = baseline.report;
  const auto& c = coalesced.report;
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

  const double speedup = b.runtime > 0 && c.runtime > 0
                             ? static_cast<double>(b.runtime) /
                                       static_cast<double>(c.runtime) -
                                   1.0
                             : 0.0;
  std::printf("\nruntime improvement with memory coalescer: %.2f%%\n",
              speedup * 100.0);
  std::printf("requests eliminated: %.2f%% (paper avg: 47.47%%)\n",
              c.coalescing_efficiency() * 100.0);

  if (!metrics_out.empty()) {
    const std::string err =
        write_file_atomic(metrics_out, coalesced.metrics_text);
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!full.obs.trace_json.empty()) {
    std::printf("trace written to %s\n", full.obs.trace_json.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
