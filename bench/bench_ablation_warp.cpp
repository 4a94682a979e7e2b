// Ablation: warp front-end shape x memory coalescing x sorting window.
//
// The warp workloads (workloads/warp.hpp) put a GPU-style SIMT producer in
// front of the paper's coalescer: the intra-warp merge already collapses
// converged vectors, so what reaches the LLC-miss stream ranges from
// perfectly contiguous runs (warp_saxpy) to fully divergent single lines
// (warp_gups, warp_chase). This bench quantifies how much work the SHARED
// memory-side coalescer still finds in each regime, and how the sorting
// window interacts with warp width: wider warps emit longer same-window
// bursts, which a larger window can sort into fewer, larger HMC packets.
//
// Sweep: {warp_gups, warp_saxpy, warp_chase} x warp_width {8, 32}
// x window {8, 32} x {conventional MSHR, full coalescer}. Point-level
// results land in BENCH_warp.json beside the CSV (written only when a CSV
// path is configured, so nocsv=1 runs stay file-free).
#include <cstdio>
#include <string>

#include "suite/benches.hpp"
#include "workloads/warp.hpp"

namespace hmcc::bench {

namespace {

constexpr const char* kNames[] = {"warp_gups", "warp_saxpy", "warp_chase"};
constexpr std::uint32_t kWidths[] = {8, 32};
constexpr std::uint32_t kWindows[] = {8, 32};
constexpr system::CoalescerMode kModes[] = {
    system::CoalescerMode::kConventional, system::CoalescerMode::kFull};

}  // namespace

SuiteBench make_ablation_warp() {
  SuiteBench b;
  b.meta.name = "ablation_warp";
  b.meta.title = "Ablation: Warp Width x Coalescing x Sorting Window";
  b.meta.paper_note =
      "SIMT front-end ahead of the coalescer; intra-warp merge leaves "
      "divergent streams for the shared coalescer, converged ones arrive "
      "pre-packed";
  b.meta.default_accesses = 4000;
  b.tasks = [](const BenchEnv& env) {
    std::vector<Point> points;
    for (const char* name : kNames) {
      for (const std::uint32_t width : kWidths) {
        for (const std::uint32_t window : kWindows) {
          for (const system::CoalescerMode mode : kModes) {
            system::SystemConfig cfg = env.platform;
            cfg.coalescer.window = window;
            system::apply_mode(cfg, mode);
            workloads::WorkloadParams params = env.params;
            params.warp.warp_width = width;
            points.push_back({name, cfg, params});
          }
        }
      }
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"workload", "width", "window", "runtime (base)",
                 "runtime (coal)", "coal eff", "speedup"});
    std::size_t idx = 0;
    for (const char* name : kNames) {
      for (const std::uint32_t width : kWidths) {
        for (const std::uint32_t window : kWindows) {
          const auto& base = result_as<system::RunResult>(results[idx++]);
          const auto& coal = result_as<system::RunResult>(results[idx++]);
          const double speedup =
              coal.report.runtime
                  ? static_cast<double>(base.report.runtime) /
                        static_cast<double>(coal.report.runtime)
                  : 1.0;
          table.add_row({name, Table::fmt(std::uint64_t{width}),
                         Table::fmt(std::uint64_t{window}),
                         Table::fmt(base.report.runtime),
                         Table::fmt(coal.report.runtime),
                         Table::pct(coal.report.coalescing_efficiency()),
                         Table::fmt(speedup, 2) + "x"});
        }
      }
    }
    return table;
  };
  b.epilogue = [](const BenchEnv& env, std::vector<std::any>& results) {
    // Results follow the tasks() nesting; the full-coalescer run of each
    // (name, width, window) point is the odd index of its mode pair.
    std::string line = "(coalesced runtime, window=8:";
    constexpr std::size_t kPerWidth = 2 * 2;        // windows x modes
    constexpr std::size_t kPerName = 2 * kPerWidth;  // widths x ...
    std::size_t name_idx = 0;
    for (const char* name : kNames) {
      line += std::string(" ") + name + " w8=";
      for (std::size_t w = 0; w < 2; ++w) {
        const auto& r = result_as<system::RunResult>(
            results[name_idx * kPerName + w * kPerWidth + 1]);
        if (w == 1) line += " w32=";
        line += std::to_string(r.report.runtime);
      }
      ++name_idx;
    }
    line += ")\n";

    if (!env.csv_path.empty()) {
      std::string json = "{\"bench\": \"ablation_warp\", \"points\": [";
      std::size_t idx = 0;
      for (const char* name : kNames) {
        for (const std::uint32_t width : kWidths) {
          for (const std::uint32_t window : kWindows) {
            for (const system::CoalescerMode mode : kModes) {
              const auto& r = result_as<system::RunResult>(results[idx]);
              char buf[320];
              std::snprintf(
                  buf, sizeof buf,
                  "%s{\"workload\": \"%s\", \"warp_width\": %u, "
                  "\"window\": %u, \"mode\": \"%s\", \"runtime\": %llu, "
                  "\"llc_misses\": %llu, \"hmc_requests\": %llu, "
                  "\"coalescing_efficiency\": %.6f, \"wire_bytes\": %llu}",
                  idx ? ", " : "", name, width, window,
                  system::to_string(mode),
                  static_cast<unsigned long long>(r.report.runtime),
                  static_cast<unsigned long long>(r.report.llc_misses),
                  static_cast<unsigned long long>(r.report.memory_requests),
                  r.report.coalescing_efficiency(),
                  static_cast<unsigned long long>(
                      r.report.hmc.transferred_bytes));
              json += buf;
              ++idx;
            }
          }
        }
      }
      json += "]}\n";
      write_beside_csv(env, "BENCH_warp.json", json);
    }
    return line;
  };
  return b;
}

}  // namespace hmcc::bench
