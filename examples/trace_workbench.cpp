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
// which file= / trace_replay= read back. The platform knobs trace_record=PATH / trace_replay=PATH work here exactly as
// in the benches, so a recorded corpus file replays byte-identically:
//
//   trace_workbench cmd=run workload=warp_gups trace_record=g.hmct csv=a.csv
//   trace_workbench cmd=run trace_replay=g.hmct csv=b.csv   # a.csv == b.csv
//
// With metrics=1 [sample_interval=N] metrics_out=PATH, cmd=run writes the
// run's full Prometheus registry (including the mid-run occupancy samples)
// to PATH after the simulation drains. csv=PATH mirrors the stdout result
// table into a machine-readable CSV (the record/replay CI gate diffs it).
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "common/table.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"
#include "trace/codec.hpp"
#include "trace/trace.hpp"
#include "workloads/warp.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hmcc;

bool load_any(trace::MultiTrace& mt, const std::string& path) {
  const trace::CodecResult res = trace::read_file(mt, path);
  if (!res.ok()) {
    std::fprintf(stderr, "failed to load trace '%s': %s (%s)\n", path.c_str(),
                 trace::to_string(res.status), res.detail.c_str());
    return false;
  }
  return true;
}

trace::MultiTrace obtain_trace(const Config& cli,
                               const system::SystemConfig& cfg, bool* ok) {
  *ok = true;
  const std::string replay = cfg.trace_io.replay_path;
  const std::string file = cli.get_string("file", "");
  const std::string workload = cli.get_string("workload", "");
  trace::MultiTrace mt;
  if (!replay.empty()) {
    *ok = load_any(mt, replay);
  } else if (!file.empty() && workload.empty()) {
    *ok = load_any(mt, file);
  } else {
    auto gen =
        workloads::make_workload(workload.empty() ? "stream" : workload);
    if (!gen) {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      *ok = false;
      return {};
    }
    workloads::WorkloadParams params;
    params.num_cores = cfg.hierarchy.num_cores;
    params.accesses_per_core = cli.get_uint("accesses", 20000);
    params.seed = cli.get_uint("seed", 1);
    params.warp = workloads::warp_params_from_cli(cli);
    mt = gen->generate(params);
  }
  if (*ok && !cfg.trace_io.record_path.empty()) {
    const trace::CodecResult res =
        trace::write_file(mt, cfg.trace_io.record_path);
    if (!res.ok()) {
      std::fprintf(stderr, "trace_record='%s' failed: %s (%s)\n",
                   cfg.trace_io.record_path.c_str(),
                   trace::to_string(res.status), res.detail.c_str());
      *ok = false;
    }
  }
  return mt;
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

int main(int argc, char** argv) {
  Config cli;
  cli.parse_args(argc, argv);
  const std::string cmd = cli.get_string("cmd", "profile");
  system::SystemConfig cfg;
  try {
    cfg = system::config_from_cli(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  bool ok = true;
  const trace::MultiTrace mt = obtain_trace(cli, cfg, &ok);
  if (!ok) return 1;

  if (cmd == "profile") {
    print_profile(mt);
    return 0;
  }
  if (cmd == "save") {
    const std::string file = cli.get_string("file", "out.hmct");
    const trace::CodecResult res = trace::write_file(mt, file);
    if (!res.ok()) {
      std::fprintf(stderr, "failed to write '%s': %s (%s)\n", file.c_str(),
                   trace::to_string(res.status), res.detail.c_str());
      return 1;
    }
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(mt.total_records()),
                file.c_str());
    return 0;
  }
  if (cmd == "run") {
    cfg.hierarchy.num_cores = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, mt.num_cores()));
    system::apply_mode(cfg, cfg.mode);
    system::System sys(cfg);
    const system::SystemReport rep = sys.run(mt);
    Table t({"metric", "value"});
    t.add_row({"datapath", system::to_string(cfg.mode)});
    t.add_row({"CPU accesses", Table::fmt(rep.cpu_accesses)});
    t.add_row({"LLC misses + WBs",
               Table::fmt(rep.llc_misses + rep.writebacks)});
    t.add_row({"HMC requests", Table::fmt(rep.memory_requests)});
    t.add_row({"coalescing efficiency",
               Table::pct(rep.coalescing_efficiency())});
    t.add_row({"wire bytes", Table::fmt(rep.hmc.transferred_bytes)});
    t.add_row({"runtime (cycles)", Table::fmt(rep.runtime)});
    t.add_row({"runtime (us)",
               Table::fmt(rep.runtime_seconds() * 1e6, 2)});
    std::fputs(t.to_ascii().c_str(), stdout);
    const std::string csv_out = cli.get_string("csv", "");
    if (!csv_out.empty()) {
      std::FILE* f = std::fopen(csv_out.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "failed to write '%s'\n", csv_out.c_str());
        return 1;
      }
      std::fputs(t.to_csv().c_str(), f);
      std::fclose(f);
    }
    const std::string metrics_out = cli.get_string("metrics_out", "");
    if (!metrics_out.empty() && sys.metrics() != nullptr) {
      std::FILE* f = std::fopen(metrics_out.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "failed to write '%s'\n", metrics_out.c_str());
        return 1;
      }
      const std::string text = sys.metrics()->render_prometheus();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
    return rep.drained ? 0 : 2;
  }
  std::fprintf(stderr, "unknown cmd '%s' (profile|save|run)\n", cmd.c_str());
  return 1;
}
