// Ablation: vault scheduling policy x intra-HMC NoC model.
//
// The paper models vault service as strictly in-order behind a flat crossbar
// constant. This bench quantifies what that abstraction hides: per-vault
// FR-FCFS / batch scheduling can recover row hits plain FCFS leaves behind
// (visible under an open-page row policy — closed-page has no rows to
// re-hit), and the quadrant NoC model adds hop latency plus link-to-vault
// contention that coalescing amortizes over fewer, larger packets.
//
// Sweep: {stream, sg} x sched {fcfs, frfcfs, batch} x noc {off, quadrant}
// x {conventional MSHR, full coalescer}, all under open-page row buffers.
// Besides the table/CSV every bench emits, the point-level results land in
// BENCH_scheduler.json beside the CSV (written only when a CSV path is
// configured, so nocsv=1 runs stay file-free).
#include <cstdio>
#include <string>

#include "suite/benches.hpp"

namespace hmcc::bench {

namespace {

constexpr const char* kNames[] = {"stream", "sg"};
constexpr hmc::SchedPolicy kPolicies[] = {
    hmc::SchedPolicy::kFcfs, hmc::SchedPolicy::kFrfcfs,
    hmc::SchedPolicy::kBatch};
constexpr hmc::NocModel kNocs[] = {hmc::NocModel::kOff,
                                   hmc::NocModel::kQuadrant};
constexpr system::CoalescerMode kModes[] = {
    system::CoalescerMode::kConventional, system::CoalescerMode::kFull};

}  // namespace

SuiteBench make_ablation_scheduler() {
  SuiteBench b;
  b.meta.name = "ablation_scheduler";
  b.meta.title = "Ablation: Vault Scheduling x Intra-HMC NoC";
  b.meta.paper_note =
      "open-page row buffers; FR-FCFS/batch recover row hits FCFS leaves "
      "behind, the quadrant NoC charges hops coalescing amortizes";
  b.meta.default_accesses = 6000;
  b.tasks = [](const BenchEnv& env) {
    std::vector<Point> points;
    for (const char* name : kNames) {
      for (const hmc::SchedPolicy sched : kPolicies) {
        for (const hmc::NocModel noc : kNocs) {
          for (const system::CoalescerMode mode : kModes) {
            system::SystemConfig cfg = env.platform;
            cfg.hmc.closed_page = false;
            cfg.hmc.sched = sched;
            cfg.hmc.noc = noc;
            system::apply_mode(cfg, mode);
            points.push_back({name, cfg, env.params});
          }
        }
      }
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "sched", "noc", "runtime (base)",
                 "runtime (coal)", "row hits (coal)", "noc hops (coal)",
                 "speedup"});
    std::size_t idx = 0;
    for (const char* name : kNames) {
      for (const hmc::SchedPolicy sched : kPolicies) {
        for (const hmc::NocModel noc : kNocs) {
          const auto& base = result_as<system::RunResult>(results[idx++]);
          const auto& coal = result_as<system::RunResult>(results[idx++]);
          const double speedup =
              coal.report.runtime
                  ? static_cast<double>(base.report.runtime) /
                        static_cast<double>(coal.report.runtime)
                  : 1.0;
          table.add_row({name, hmc::to_string(sched), hmc::to_string(noc),
                         Table::fmt(base.report.runtime),
                         Table::fmt(coal.report.runtime),
                         Table::fmt(coal.report.hmc.row_hits),
                         Table::fmt(coal.report.hmc.noc_hops),
                         Table::fmt(speedup, 2) + "x"});
        }
      }
    }
    return table;
  };
  b.epilogue = [](const BenchEnv& env, std::vector<std::any>& results) {
    // Results arrive in the tasks() nesting order; per-workload stride is
    // |policies| x |nocs| x |modes|, and the full-coalescer run of the
    // noc=off point for policy p sits at offset p * |nocs| * |modes| + 1.
    constexpr std::size_t kPerPolicy = 2 * 2;       // nocs x modes
    constexpr std::size_t kPerName = 3 * kPerPolicy;
    std::string line = "(coalesced runtime, noc=off:";
    std::size_t name_idx = 0;
    for (const char* name : kNames) {
      line += std::string(" ") + name + " fcfs=";
      for (std::size_t p = 0; p < 3; ++p) {
        const auto& r = result_as<system::RunResult>(
            results[name_idx * kPerName + p * kPerPolicy + 1]);
        if (p == 1) line += " frfcfs=";
        if (p == 2) line += " batch=";
        line += std::to_string(r.report.runtime);
      }
      ++name_idx;
    }
    line += ")\n";

    if (!env.csv_path.empty()) {
      std::string json = "{\"bench\": \"ablation_scheduler\", \"points\": [";
      std::size_t idx = 0;
      for (const char* name : kNames) {
        for (const hmc::SchedPolicy sched : kPolicies) {
          for (const hmc::NocModel noc : kNocs) {
            for (const system::CoalescerMode mode : kModes) {
              const auto& r = result_as<system::RunResult>(results[idx]);
              char buf[384];
              std::snprintf(
                  buf, sizeof buf,
                  "%s{\"workload\": \"%s\", \"sched\": \"%s\", \"noc\": "
                  "\"%s\", \"mode\": \"%s\", \"runtime\": %llu, "
                  "\"row_hits\": %llu, \"row_hit_picks\": %llu, "
                  "\"starved_serves\": %llu, \"noc_hops\": %llu, "
                  "\"noc_contended\": %llu}",
                  idx ? ", " : "", name, hmc::to_string(sched),
                  hmc::to_string(noc), system::to_string(mode),
                  static_cast<unsigned long long>(r.report.runtime),
                  static_cast<unsigned long long>(r.report.hmc.row_hits),
                  static_cast<unsigned long long>(
                      r.report.hmc.sched_row_hit_picks),
                  static_cast<unsigned long long>(
                      r.report.hmc.sched_starved_serves),
                  static_cast<unsigned long long>(r.report.hmc.noc_hops),
                  static_cast<unsigned long long>(r.report.hmc.noc_contended));
              json += buf;
              ++idx;
            }
          }
        }
      }
      json += "]}\n";
      write_beside_csv(env, "BENCH_scheduler.json", json);
    }
    return line;
  };
  return b;
}

}  // namespace hmcc::bench
