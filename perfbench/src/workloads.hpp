// The benchmark's four named workloads: which generator feeds which
// platform configuration, and at what default size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "system/config.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;       ///< benchmark workload name (--workload)
  std::string generator;  ///< workloads::make_workload() name
  /// Platform knobs in config_bridge key=value form, over the paper platform.
  std::vector<std::string> knobs;
  /// Default CPU accesses per core. Sized so one System::run takes roughly
  /// the same host time on every workload (gups_warp costs several times
  /// more per access than the CPU workloads).
  std::uint64_t accesses_per_core = 0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);

/// The paper platform with @p spec's knobs applied (default execution
/// settings: vault_parallel and pool off, metrics off).
[[nodiscard]] hmcc::system::SystemConfig make_config(const WorkloadSpec& spec);

}  // namespace perfbench
