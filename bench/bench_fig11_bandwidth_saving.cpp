// Figure 11: total bandwidth saving of the memory coalescer.
//
// Paper: the coalescer removes on average 33.25 GB of unnecessary (mostly
// control) data transfer per benchmark run, with LU (124.77 GB) and SP
// (133.82 GB) the largest because their traces are the biggest. Absolute
// volumes scale with trace length; the series to compare is the RELATIVE
// ordering and the saved fraction.
#include "suite/benches.hpp"

namespace hmcc::bench {

SuiteBench make_fig11() {
  SuiteBench b;
  b.meta.name = "fig11";
  b.meta.title = "Figure 11: Bandwidth Saving";
  b.meta.paper_note =
      "paper: 33.25 GB average saving; LU and SP largest (their "
      "traces are the biggest) — compare ordering, not absolutes";
  b.tasks = [](const BenchEnv& env) {
    std::vector<Point> points;
    for (const std::string& name : workloads::workload_names()) {
      system::SystemConfig conv = env.base_config();
      system::apply_mode(conv, system::CoalescerMode::kConventional);
      points.push_back({name, conv, env.params});

      system::SystemConfig full = env.base_config();
      system::apply_mode(full, system::CoalescerMode::kFull);
      points.push_back({name, full, env.params});
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "baseline transfer (MB)", "coalesced (MB)",
                 "saved (MB)", "saved fraction"});
    double total_saved = 0;
    const auto& names = workloads::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      const auto& base = result_as<system::RunResult>(results[2 * i]);
      const auto& coal = result_as<system::RunResult>(results[2 * i + 1]);

      const double mb = 1.0 / (1 << 20);
      const auto b2 = static_cast<double>(base.report.hmc.transferred_bytes);
      const auto c = static_cast<double>(coal.report.hmc.transferred_bytes);
      const double saved = b2 - c;
      total_saved += saved;
      table.add_row({name, Table::fmt(b2 * mb, 2), Table::fmt(c * mb, 2),
                     Table::fmt(saved * mb, 2),
                     Table::pct(b2 > 0 ? saved / b2 : 0.0)});
    }
    table.add_row({"average", "", "",
                   Table::fmt(total_saved / (1 << 20) /
                                  static_cast<double>(names.size()),
                              2),
                   ""});
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
