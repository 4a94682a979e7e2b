// Figure 12: average latency of coalescing in the DMC unit.
//
// Paper: with 2-cycle compare/merge operations at 3.3 GHz, the DMC unit
// averages 7.1 ns per sorted window across the suite and never exceeds 9 ns
// — over 10x faster than the memory access it hides behind.
#include "suite/benches.hpp"

namespace hmcc::bench {

SuiteBench make_fig12() {
  SuiteBench b;
  b.meta.name = "fig12";
  b.meta.title = "Figure 12: DMC Unit Coalescing Latency";
  b.meta.paper_note =
      "paper: 7.1 ns average, all benchmarks below 9 ns at 3.3 GHz";
  b.tasks = [](const BenchEnv& env) {
    std::vector<Point> points;
    for (const std::string& name : workloads::workload_names()) {
      system::SystemConfig full = env.base_config();
      system::apply_mode(full, system::CoalescerMode::kFull);
      points.push_back({name, full, env.params});
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "avg DMC latency (cycles)", "avg (ns)",
                 "batches"});
    double sum_ns = 0;
    const auto& names = workloads::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      const auto& r = result_as<system::RunResult>(results[i]);
      const double cycles = r.report.coalescer.dmc_latency.mean();
      const double ns = cycles * arch::kNsPerCycle;
      sum_ns += ns;
      table.add_row({name, Table::fmt(cycles, 2), Table::fmt(ns, 2),
                     Table::fmt(r.report.coalescer.batches)});
    }
    table.add_row({"average", "",
                   Table::fmt(sum_ns / static_cast<double>(names.size()), 2),
                   ""});
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
