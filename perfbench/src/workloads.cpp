#include "workloads.hpp"

#include <stdexcept>

#include "common/config.hpp"
#include "system/config_bridge.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"hpcg_coalescer", "hpcg", {"mode=coalescer", "mem=hmc"}, 100000},
      {"stream_conventional", "stream", {"mode=conventional"}, 120000},
      {"gups_warp", "warp_gups", {"mode=coalescer"}, 25000},
      // bench_ablation_hybrid's tier: a 2 MiB fast tier of 4 KiB pages.
      {"sg_hybrid_migrate",
       "sg",
       {"mode=coalescer", "mem=hybrid", "scheme=migrate", "fast_pages=512",
        "tag_ways=8", "hot_threshold=4", "migrate_epoch=20000"},
       100000},
  };
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workload_specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

hmcc::system::SystemConfig make_config(const WorkloadSpec& spec) {
  hmcc::Config cli;
  for (const std::string& knob : spec.knobs) {
    if (!cli.set_from_string(knob)) {
      throw std::invalid_argument("malformed knob '" + knob + "'");
    }
  }
  return hmcc::system::config_from_cli(cli);
}

}  // namespace perfbench
