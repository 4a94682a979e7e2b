// Figure 13: average time cost of filling up the CRQ.
//
// Paper: accumulating CRQ-capacity (16) coalesced packets takes 15.86 ns on
// average — comfortably hidden behind the >=100 ns memory access — and FT is
// the slowest (34.76 ns) precisely because it coalesces best: coalescable
// requests spend extra merge-stage slots in the DMC unit.
#include "suite/benches.hpp"

namespace hmcc::bench {

SuiteBench make_fig13() {
  SuiteBench b;
  b.meta.name = "fig13";
  b.meta.title = "Figure 13: Time Cost of Filling the CRQ";
  b.meta.paper_note =
      "paper: 15.86 ns average; FT worst (34.76 ns) because high "
      "coalescing spends more merge-stage time";
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
    Table table({"benchmark", "avg CRQ fill (cycles)", "avg (ns)",
                 "coalescing efficiency"});
    double sum_ns = 0;
    int counted = 0;
    const auto& names = workloads::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      const auto& r = result_as<system::RunResult>(results[i]);
      const double cycles = r.report.coalescer.crq_fill_time.mean();
      const double ns = cycles * arch::kNsPerCycle;
      if (r.report.coalescer.crq_fill_time.count() > 0) {
        sum_ns += ns;
        ++counted;
      }
      table.add_row({name, Table::fmt(cycles, 2), Table::fmt(ns, 2),
                     Table::pct(r.report.coalescing_efficiency())});
    }
    table.add_row({"average", "",
                   Table::fmt(counted ? sum_ns / counted : 0.0, 2), ""});
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
