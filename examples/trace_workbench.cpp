// Trace workbench: generate, inspect, persist and replay memory traces —
// the offline side of the paper's trace-then-simulate methodology.
//
// Usage:
//   trace_workbench cmd=profile workload=hpcg [accesses=20000] [seed=1]
//   trace_workbench cmd=save    workload=ft file=ft.hmct
//   trace_workbench cmd=run     file=ft.hmct [mode=coalescer]
//   trace_workbench cmd=run     workload=lu  [mode=conventional]
//
// cmd=save writes the versioned .hmct corpus format (src/trace/codec.hpp),
// which file= / trace_replay= read back. The platform knobs
// trace_record=PATH / trace_replay=PATH work here exactly as in the
// benches, so a recorded corpus file replays byte-identically:
//
//   trace_workbench cmd=run workload=warp_gups trace_record=g.hmct csv=a.csv
//   trace_workbench cmd=run trace_replay=g.hmct csv=b.csv   # a.csv == b.csv
//
// With metrics_out=PATH [sample_interval=N], cmd=run writes the
// run's full Prometheus registry (including the mid-run occupancy samples)
// to PATH after the simulation drains. csv=PATH mirrors the stdout result
// table into a machine-readable CSV (the record/replay CI gate diffs it).
// Every platform and workload key applies; a bad argument exits 2, and a
// failed read or write prints "error: ..." and exits 1.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "common/file_io.hpp"
#include "common/table.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"
#include "trace/codec.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hmcc;

/// Print "error: <what>" and return false when @p res failed.
bool report(const trace::CodecResult& res) {
  if (!res.ok()) {
    std::fprintf(stderr, "error: %s (%s)\n", res.detail.c_str(),
                 trace::to_string(res.status));
  }
  return res.ok();
}

/// The trace to work on: trace_replay=, else file= (without workload=),
/// else the generated workload; recorded to trace_record= when set.
bool obtain_trace(trace::MultiTrace& mt, const system::SystemConfig& cfg,
                  workloads::WorkloadParams params, const std::string& file,
                  const std::string& workload) {
  if (!cfg.trace_io.replay_path.empty()) {
    if (!report(trace::read_file(mt, cfg.trace_io.replay_path))) return false;
  } else if (!file.empty() && workload.empty()) {
    if (!report(trace::read_file(mt, file))) return false;
  } else {
    params.num_cores = cfg.hierarchy.num_cores;
    mt = workloads::make_workload(workload.empty() ? "stream" : workload)
             ->generate(params);
  }
  return cfg.trace_io.record_path.empty() ||
         report(trace::write_file(mt, cfg.trace_io.record_path));
}

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
  const std::string file = args.text("file", "");
  const std::string workload = args.text("workload", "");
  const std::string csv_out = args.text("csv", "");
  const std::string metrics_out = args.text("metrics_out", "");
  if (cmd != "profile" && cmd != "save" && cmd != "run") {
    args.fail("cmd: '" + cmd + "' is not one of profile|save|run");
  }
  if (!workload.empty() && !workloads::make_workload(workload)) {
    args.fail("workload: unknown workload '" + workload + "'");
  }
  if (!args.finish()) return 2;

  trace::MultiTrace mt;
  if (!obtain_trace(mt, cfg, params, file, workload)) return 1;

  if (cmd == "profile") {
    print_profile(mt);
    return 0;
  }
  if (cmd == "save") {
    const std::string path = file.empty() ? "out.hmct" : file;
    if (!report(trace::write_file(mt, path))) return 1;
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(mt.total_records()),
                path.c_str());
    return 0;
  }
  cfg.hierarchy.num_cores =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, mt.num_cores()));
  cfg.obs.metrics = cfg.obs.metrics || !metrics_out.empty();
  system::apply_mode(cfg, cfg.mode);
  system::System sys(cfg);
  const system::SystemReport rep = sys.run(mt);
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
  return rep.drained ? 0 : 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
