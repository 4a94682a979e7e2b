#include "workloads/workload.hpp"

#include "workloads/generators.hpp"
#include "workloads/warp.hpp"

namespace hmcc::workloads {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sg", "hpcg", "ssca2", "stream", "sparselu", "sort",
      "cg", "ep",   "ft",    "is",     "lu",       "sp"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  using namespace detail;
  if (name == "sg") return make_sg();
  if (name == "hpcg") return make_hpcg();
  if (name == "ssca2") return make_ssca2();
  if (name == "stream") return make_stream();
  if (name == "sparselu") return make_sparselu();
  if (name == "sort") return make_sort();
  if (name == "cg") return make_cg();
  if (name == "ep") return make_ep();
  if (name == "ft") return make_ft();
  if (name == "is") return make_is();
  if (name == "lu") return make_lu();
  if (name == "sp") return make_sp();
  // The warp SIMT front-end (warp.hpp) — resolvable by name everywhere but
  // deliberately absent from workload_names() (the paper's fixed 12).
  if (name == "warp_gups") return make_warp_gups();
  if (name == "warp_saxpy") return make_warp_saxpy();
  if (name == "warp_chase") return make_warp_chase();
  return nullptr;
}

const std::vector<desc::Knob<WorkloadParams>>& workload_knobs() {
  static const std::vector<desc::Knob<WorkloadParams>> table = [] {
    using desc::uint_knob;
    using P = WorkloadParams;
    std::vector<desc::Knob<P>> t;
    t.push_back(uint_knob<P>(
        "accesses", "workload",
        "CPU accesses per core (each program sets its own default)", 1, ~0ULL,
        [](const P& p) { return p.accesses_per_core; },
        [](P& p, std::uint64_t v) { p.accesses_per_core = v; }));
    t.push_back(uint_knob<P>(
        "seed", "workload", "workload RNG seed", 0, ~0ULL,
        [](const P& p) { return p.seed; },
        [](P& p, std::uint64_t v) { p.seed = v; }));
    t.push_back(uint_knob<P>(
        "warps", "workload", "resident warps per core in the warp_* workloads",
        1, 1024, [](const P& p) { return std::uint64_t{p.warp.warps}; },
        [](P& p, std::uint64_t v) {
          p.warp.warps = static_cast<std::uint32_t>(v);
        }));
    t.push_back(uint_knob<P>(
        "warp_width", "workload", "threads per warp (lane-vector length)", 1,
        4096, [](const P& p) { return std::uint64_t{p.warp.warp_width}; },
        [](P& p, std::uint64_t v) {
          p.warp.warp_width = static_cast<std::uint32_t>(v);
        }));
    t.push_back(uint_knob<P>(
        "lanes", "workload",
        "SIMD issue width; a vector op takes ceil(warp_width/lanes) beats", 1,
        4096, [](const P& p) { return std::uint64_t{p.warp.lanes}; },
        [](P& p, std::uint64_t v) {
          p.warp.lanes = static_cast<std::uint32_t>(v);
        }));
    t.push_back(uint_knob<P>(
        "max_outstanding_warps", "workload",
        "warps concurrently suspended on memory (per-core MLP bound)", 1, 1024,
        [](const P& p) { return std::uint64_t{p.warp.max_outstanding_warps}; },
        [](P& p, std::uint64_t v) {
          p.warp.max_outstanding_warps = static_cast<std::uint32_t>(v);
        }));
    const P defaults;
    for (desc::Knob<P>& k : t) k.meta.default_value = k.read(defaults);
    return t;
  }();
  return table;
}

}  // namespace hmcc::workloads
