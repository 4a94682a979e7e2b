// Figure 14: average latency of the memory coalescer vs timeout T.
//
// Paper: sweeping the window timeout over 16..28 cycles, per-request
// coalescer latency stays flat for small T (coalescing work dominates) and
// rises once the sorting-network wait dominates at T=28 — except FT, whose
// deep merging keeps it insensitive. "It is ideal to equate the timeout
// with the average coalescing latency."
#include "suite/benches.hpp"

namespace hmcc::bench {

SuiteBench make_fig14() {
  SuiteBench b;
  b.meta.name = "fig14";
  b.meta.title = "Figure 14: Coalescer Latency vs Timeout (16..28 cycles)";
  b.meta.paper_note = "paper: latency flat for T<=24, rises at T=28 (except FT)";
  b.tasks = [](const BenchEnv& env) {
    const Cycle timeouts[] = {16, 20, 24, 28};
    std::vector<Point> points;
    for (const std::string& name : workloads::workload_names()) {
      for (std::size_t t = 0; t < 4; ++t) {
        system::SystemConfig full = env.base_config();
        full.coalescer.timeout = timeouts[t];
        system::apply_mode(full, system::CoalescerMode::kFull);
        points.push_back({name, full, env.params});
      }
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "T=16 (ns)", "T=20 (ns)", "T=24 (ns)",
                 "T=28 (ns)"});
    const auto& names = workloads::workload_names();
    std::vector<double> avg(4, 0.0);
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::vector<std::string> row{names[i]};
      for (std::size_t t = 0; t < 4; ++t) {
        const auto& r = result_as<system::RunResult>(results[4 * i + t]);
        const double ns =
            r.report.coalescer.front_latency.mean() * arch::kNsPerCycle;
        avg[t] += ns;
        row.push_back(Table::fmt(ns, 2));
      }
      table.add_row(row);
    }
    std::vector<std::string> arow{"average"};
    for (std::size_t t = 0; t < 4; ++t) {
      arow.push_back(
          Table::fmt(avg[t] / static_cast<double>(names.size()), 2));
    }
    table.add_row(arow);
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
