// Ablation (§2.2.1): closed-page vs open-page HMC row policy.
//
// The paper's motivating pathology — sixteen 16 B reads of one block open
// and close the same row sixteen times — assumes the HMC's closed-page
// default. This bench quantifies how much of the coalescer's win comes from
// avoided row cycles: under an open-page policy the row stays open across
// the small requests, so the coalescer's latency advantage shrinks (its
// control-overhead advantage does not).
#include "suite/benches.hpp"

namespace hmcc::bench {

SuiteBench make_ablation_hmc_paging() {
  SuiteBench b;
  b.meta.name = "ablation_hmc_paging";
  b.meta.title = "Ablation: HMC Row-Buffer Policy";
  b.meta.paper_note =
      "closed-page (HMC default) is where coalescing saves the most "
      "row cycles";
  b.meta.default_accesses = 8000;
  b.tasks = [](const BenchEnv& env) {
    const std::vector<std::string> names = {"stream", "ft", "sg"};
    std::vector<Point> points;
    for (const std::string& name : names) {
      for (const bool closed : {true, false}) {
        system::SystemConfig conv = env.base_config();
        conv.hmc.closed_page = closed;
        system::apply_mode(conv, system::CoalescerMode::kConventional);
        points.push_back({name, conv, env.params});

        system::SystemConfig full = env.base_config();
        full.hmc.closed_page = closed;
        system::apply_mode(full, system::CoalescerMode::kFull);
        points.push_back({name, full, env.params});
      }
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "policy", "row activations (base)",
                 "row activations (coal)", "mem-phase speedup"});
    const std::vector<std::string> names = {"stream", "ft", "sg"};
    std::size_t idx = 0;
    for (const std::string& name : names) {
      for (const bool closed : {true, false}) {
        const auto& base = result_as<system::RunResult>(results[idx++]);
        const auto& coal = result_as<system::RunResult>(results[idx++]);

        const double speedup =
            coal.report.runtime
                ? static_cast<double>(base.report.runtime) /
                      static_cast<double>(coal.report.runtime)
                : 1.0;
        table.add_row({name, closed ? "closed-page" : "open-page",
                       Table::fmt(base.report.hmc.row_activations),
                       Table::fmt(coal.report.hmc.row_activations),
                       Table::fmt(speedup, 2) + "x"});
      }
    }
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
