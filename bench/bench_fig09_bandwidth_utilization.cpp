// Figure 9: bandwidth efficiency of coalesced vs raw requests.
//
// Paper: raw requests average 7.43% bandwidth efficiency (tiny CPU payloads
// shipped in fixed 64 B+32 B transactions); coalescing at the actual
// requested-data granularity raises the average to 27.73% (~4x), with HPCG a
// notable laggard at 20.02% because its payloads are mostly 16 B.
//
// Method (as in the paper): one conventional-MSHR run per workload feeds
// both series. The raw series is Equation (1) from its report; the
// coalesced series re-coalesces its LLC miss stream at payload granularity
// (16 B FLIT multiples) in window-sized batches (payload_packets()).
#include "suite/benches.hpp"

namespace hmcc::bench {
namespace {

struct Fig09Row {
  double raw_eff = 0;
  double coal_eff = 0;
};

}  // namespace

SuiteBench make_fig09() {
  SuiteBench b;
  b.meta.name = "fig09";
  b.meta.title = "Figure 9: Bandwidth Efficiency, Raw vs Coalesced";
  b.meta.paper_note =
      "paper: raw 7.43% avg, coalesced 27.73% avg (~4x); HPCG low "
      "(20.02%) due to small payloads";
  b.tasks = [](const BenchEnv& env) {
    std::vector<SuiteTask> tasks;
    for (const std::string& name : workloads::workload_names()) {
      system::SystemConfig conv = env.base_config();
      system::apply_mode(conv, system::CoalescerMode::kConventional);
      tasks.push_back([name, conv, params = env.params] {
        std::vector<coalescer::CoalescerRequest> stream;
        const auto raw = system::run_workload(
            name, conv, params,
            [&stream](const coalescer::CoalescerRequest& r, std::uint32_t) {
              stream.push_back(r);
            });
        std::uint64_t payload = 0;
        std::uint64_t transferred = 0;
        for (const auto& pkt : payload_packets(stream, conv.coalescer.window)) {
          payload += pkt.payload_bytes();
          transferred += pkt.bytes + hmcspec::kControlBytesPerTransaction;
        }
        const double coal_eff = transferred
                                    ? static_cast<double>(payload) /
                                          static_cast<double>(transferred)
                                    : 0.0;
        return std::any(
            Fig09Row{raw.report.payload_bandwidth_efficiency(), coal_eff});
      });
    }
    return tasks;
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "raw efficiency", "coalesced efficiency",
                 "improvement"});
    double sum_raw = 0;
    double sum_coal = 0;
    const auto& names = workloads::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto& [raw_eff, coal_eff] = result_as<Fig09Row>(results[i]);
      sum_raw += raw_eff;
      sum_coal += coal_eff;
      table.add_row({names[i], Table::pct(raw_eff), Table::pct(coal_eff),
                     Table::fmt(raw_eff > 0 ? coal_eff / raw_eff : 0.0, 2) +
                         "x"});
    }
    const double n = static_cast<double>(names.size());
    table.add_row({"average", Table::pct(sum_raw / n),
                   Table::pct(sum_coal / n),
                   Table::fmt(sum_raw > 0 ? sum_coal / sum_raw : 0.0, 2) +
                       "x"});
    return table;
  };
  return b;
}

}  // namespace hmcc::bench
