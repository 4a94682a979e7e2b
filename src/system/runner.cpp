#include "system/runner.hpp"

#include <stdexcept>
#include <utility>

#include "trace/codec.hpp"

namespace hmcc::system {

SystemConfig paper_system_config() {
  SystemConfig cfg;  // defaults already encode the paper's platform
  apply_mode(cfg, CoalescerMode::kFull);
  return cfg;
}

trace::MultiTrace load_trace(const std::string& workload,
                             const SystemConfig& cfg,
                             const workloads::WorkloadParams& params) {
  trace::MultiTrace mtrace;
  if (!cfg.trace_io.replay_path.empty()) {
    // Replay: the .hmct file IS the workload; the named generator is not
    // consulted (the name still labels the run's output rows).
    const trace::CodecResult res =
        trace::read_file(mtrace, cfg.trace_io.replay_path);
    if (!res.ok()) {
      throw std::invalid_argument("trace_replay=" + cfg.trace_io.replay_path +
                                  ": " + trace::to_string(res.status) +
                                  (res.detail.empty() ? "" : " (" + res.detail +
                                                                ")"));
    }
  } else {
    auto gen = workloads::make_workload(workload);
    if (!gen) throw std::invalid_argument("unknown workload: " + workload);
    workloads::WorkloadParams p = params;
    p.num_cores = cfg.hierarchy.num_cores;
    mtrace = gen->generate(p);
  }
  if (!cfg.trace_io.record_path.empty()) {
    const trace::CodecResult res =
        trace::write_file(mtrace, cfg.trace_io.record_path);
    if (!res.ok()) {
      throw std::runtime_error("trace_record=" + cfg.trace_io.record_path +
                               ": " + trace::to_string(res.status) +
                               (res.detail.empty() ? "" : " (" + res.detail +
                                                              ")"));
    }
  }
  return mtrace;
}

RunResult run_workload(const std::string& workload, SystemConfig cfg,
                       const workloads::WorkloadParams& params,
                       System::MissHook miss_hook) {
  const trace::MultiTrace mtrace = load_trace(workload, cfg, params);
  if (mtrace.per_core.size() > cfg.hierarchy.num_cores) {
    throw std::invalid_argument(
        "trace_replay=" + cfg.trace_io.replay_path + ": trace has " +
        std::to_string(mtrace.per_core.size()) +
        " core streams but the platform has " +
        std::to_string(cfg.hierarchy.num_cores) +
        " cores; raise cores= to at least the trace's count");
  }
  System sys(cfg);
  sys.set_miss_hook(std::move(miss_hook));
  RunResult r;
  r.workload = workload;
  r.mode = cfg.mode;
  r.report = sys.run(mtrace);
  if (!r.report.drained) {
    throw std::runtime_error(workload + ": the run did not drain");
  }
  if (sys.metrics() != nullptr) {
    r.metrics_text = sys.metrics()->render_prometheus();
  }
  return r;
}

}  // namespace hmcc::system
