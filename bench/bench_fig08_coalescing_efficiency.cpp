// Figure 8: coalescing efficiency of the memory coalescer.
//
// Paper: conventional MSHR-based coalescing eliminates 31.53% of memory
// requests on average, the DMC unit alone 38.13%, and the combined
// two-phase memory coalescer 47.47% (FT best at 75.52%). This bench runs
// all 12 workloads under the three configurations and prints the same
// series.
#include "suite/benches.hpp"

namespace hmcc::bench {

SuiteBench make_fig08() {
  SuiteBench b;
  b.meta.name = "fig08";
  b.meta.title = "Figure 8: Coalescing Efficiency";
  b.meta.paper_note =
      "paper averages: MSHR 31.53% | DMC 38.13% | two-phase 47.47% "
      "(FT best, 75.52%)";
  b.tasks = [](const BenchEnv& env) {
    std::vector<Point> points;
    for (const std::string& name : workloads::workload_names()) {
      for (const auto mode :
           {system::CoalescerMode::kConventional,
            system::CoalescerMode::kDmcOnly, system::CoalescerMode::kFull}) {
        system::SystemConfig cfg = env.base_config();
        system::apply_mode(cfg, mode);
        points.push_back({name, cfg, env.params});
      }
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "MSHR-based (phase 2 only)",
                 "DMC (phase 1 only)", "memory coalescer (two-phase)"});
    double sum_mshr = 0;
    double sum_dmc = 0;
    double sum_full = 0;
    const auto& names = workloads::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      const auto& r_mshr = result_as<system::RunResult>(results[3 * i]);
      const auto& r_dmc = result_as<system::RunResult>(results[3 * i + 1]);
      const auto& r_full = result_as<system::RunResult>(results[3 * i + 2]);

      const double e_mshr = r_mshr.report.coalescing_efficiency();
      const double e_dmc = r_dmc.report.coalescing_efficiency();
      const double e_full = r_full.report.coalescing_efficiency();
      sum_mshr += e_mshr;
      sum_dmc += e_dmc;
      sum_full += e_full;
      table.add_row(
          {name, Table::pct(e_mshr), Table::pct(e_dmc), Table::pct(e_full)});
    }
    const double n = static_cast<double>(names.size());
    table.add_row({"average", Table::pct(sum_mshr / n),
                   Table::pct(sum_dmc / n), Table::pct(sum_full / n)});
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
