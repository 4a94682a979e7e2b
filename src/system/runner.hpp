// Experiment runner: the one-call entry points the bench harnesses and
// examples use to reproduce the paper's figures.
#pragma once

#include <string>

#include "system/system.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace hmcc::system {

struct RunResult {
  std::string workload;
  CoalescerMode mode = CoalescerMode::kFull;
  SystemReport report;
  /// Prometheus rendering of the per-System registry; empty unless
  /// cfg.obs.metrics was set (the System itself dies with the run, so the
  /// text is the survivable snapshot).
  std::string metrics_text;
};

/// Build the paper's default platform: 12 cores at 3.3 GHz, 16 LLC MSHRs,
/// 8 GB HMC with 256 B block addressing, n=16 coalescing window, tau=2.
[[nodiscard]] SystemConfig paper_system_config();

/// The trace a run under @p cfg works on: the .hmct file trace_replay=
/// names, else the named workload generated for cfg's core count; also
/// written to trace_record= when that is set. Throws on a failed read or
/// write.
[[nodiscard]] trace::MultiTrace load_trace(
    const std::string& workload, const SystemConfig& cfg,
    const workloads::WorkloadParams& params);

/// Run load_trace()'s trace under @p cfg. The workload/seed pair is
/// deterministic, so two calls with different modes see identical traces.
/// A non-empty @p miss_hook observes every request that enters the
/// coalescer (System::set_miss_hook). Throws when a replayed trace has more
/// core streams than cfg has cores, and when the run does not drain.
[[nodiscard]] RunResult run_workload(const std::string& workload,
                                     SystemConfig cfg,
                                     const workloads::WorkloadParams& params,
                                     System::MissHook miss_hook = {});

}  // namespace hmcc::system
