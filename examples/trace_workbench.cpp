// Trace workbench: generate, inspect, record and replay memory traces —
// the offline side of the paper's trace-then-simulate methodology.
//
// Usage:
//   trace_workbench cmd=profile workload=hpcg [accesses=20000] [seed=1]
//   trace_workbench cmd=run     workload=lu  [mode=conventional]
//
// The trace comes from system::load_trace, as in the benches: the platform
// knobs trace_record=PATH / trace_replay=PATH write it to and read it from
// the versioned .hmct corpus format (src/trace/codec.hpp), so a recorded
// corpus file replays byte-identically:
//
//   trace_workbench cmd=run workload=warp_gups trace_record=g.hmct csv=a.csv
//   trace_workbench cmd=run trace_replay=g.hmct csv=b.csv   # a.csv == b.csv
//
// cmd=run sizes cores= to the trace's core streams. With metrics_out=PATH
// [sample_interval=N], it writes the run's full Prometheus registry
// (including the mid-run occupancy samples) to PATH after the simulation
// drains. csv=PATH mirrors the stdout result table into a machine-readable
// CSV (the record/replay CI gate diffs it). Every platform and workload key
// applies; a bad argument exits 2, and a failed read or write or a run that
// does not drain prints "error: ..." and exits 1.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/file_io.hpp"
#include "common/table.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hmcc;

void print_profile(const trace::MultiTrace& mt) {
  const trace::TraceProfile p = trace::profile(mt);
  Table t({"metric", "value"});
  t.add_row({"cores", Table::fmt(std::uint64_t{mt.num_cores()})});
  t.add_row({"records", Table::fmt(p.records)});
  t.add_row({"loads / stores", Table::fmt(p.loads) + " / " +
                                   Table::fmt(p.stores)});
  t.add_row({"fences / barriers",
             Table::fmt(p.fences) + " / " + Table::fmt(p.barriers)});
  t.add_row({"bytes touched", Table::fmt(p.bytes)});
  t.add_row({"distinct 64B lines", Table::fmt(p.distinct_lines)});
  t.add_row({"mean access size", Table::fmt(p.size.mean(), 2) + " B"});
  t.add_row({"sequential fraction", Table::pct(p.sequential_fraction)});
  t.add_row({"store fraction", Table::pct(p.store_fraction())});
  std::fputs(t.to_ascii().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) try {
  desc::Args args(argc, argv);
  system::SystemConfig cfg = system::platform_from(args);
  workloads::WorkloadParams params;
  params.accesses_per_core = 20000;
  args.overlay(workloads::workload_knobs(), params);
  const std::string cmd = args.text("cmd", "profile");
  const std::string workload = args.text("workload", "stream");
  const std::string csv_out = args.text("csv", "");
  const std::string metrics_out = args.text("metrics_out", "");
  if (cmd != "profile" && cmd != "run") {
    args.fail("cmd: '" + cmd + "' is not one of profile|run");
  }
  if (!workloads::make_workload(workload)) {
    args.fail("workload: unknown workload '" + workload + "'");
  }
  if (!args.finish()) return 2;

  const trace::MultiTrace mt = system::load_trace(workload, cfg, params);
  if (cmd == "profile") {
    print_profile(mt);
    return 0;
  }
  cfg.hierarchy.num_cores =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, mt.num_cores()));
  cfg.obs.metrics = cfg.obs.metrics || !metrics_out.empty();
  system::apply_mode(cfg, cfg.mode);
  system::System sys(cfg);
  const system::SystemReport rep = sys.run(mt);
  if (!rep.drained) {
    throw std::runtime_error(workload + ": the run did not drain");
  }
  Table t({"metric", "value"});
  t.add_row({"datapath", system::to_string(cfg.mode)});
  t.add_row({"CPU accesses", Table::fmt(rep.cpu_accesses)});
  t.add_row({"LLC misses + WBs", Table::fmt(rep.llc_misses + rep.writebacks)});
  t.add_row({"HMC requests", Table::fmt(rep.memory_requests)});
  t.add_row({"coalescing efficiency", Table::pct(rep.coalescing_efficiency())});
  t.add_row({"wire bytes", Table::fmt(rep.hmc.transferred_bytes)});
  t.add_row({"runtime (cycles)", Table::fmt(rep.runtime)});
  t.add_row({"runtime (us)", Table::fmt(rep.runtime_seconds() * 1e6, 2)});
  std::fputs(t.to_ascii().c_str(), stdout);
  auto write = [](const std::string& path, const std::string& body) {
    const std::string err = write_file_atomic(path, body);
    if (!err.empty()) std::fprintf(stderr, "error: %s\n", err.c_str());
    return err.empty();
  };
  if (!csv_out.empty() && !write(csv_out, t.to_csv())) return 1;
  if (!metrics_out.empty() &&
      !write(metrics_out, sys.metrics()->render_prometheus())) {
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
