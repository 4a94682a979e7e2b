// Workload framework: synthetic, benchmark-shaped memory-trace generators.
//
// The paper evaluates 12 benchmarks (Scatter/Gather, HPCG, SSCA2, STREAM,
// BOTS and NAS-PB suites) traced via RISC-V Spike.  Those binaries and
// traces are not redistributable, so each workload here reproduces the
// *memory shape* the original is known for — stride pattern, payload sizes,
// sparsity, working-set, per-core partitioning — which is all Figures 8-15
// depend on.  Every generator is deterministic in (seed, params).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/descriptor.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace hmcc::workloads {

/// SIMT front-end shape consulted by the warp_* workloads (warp.hpp). The
/// CPU generators ignore these. Kept inside WorkloadParams so every driver
/// (benches, workbench, examples) threads them through one struct.
struct WarpParams {
  std::uint32_t warps = 8;        ///< resident warps per core (per "SM")
  std::uint32_t warp_width = 32;  ///< threads per warp (vector length)
  std::uint32_t lanes = 16;       ///< SIMD issue width; a vector op charges
                                  ///< ceil(warp_width / lanes) issue beats
  /// MLP bound: warps concurrently suspended on memory. Issue stalls once
  /// this many warps are in flight, so the emitted interleave (and the
  /// coalescer pressure downstream) is bounded, not unbounded fire-hose.
  std::uint32_t max_outstanding_warps = 4;
};

struct WorkloadParams {
  std::uint32_t num_cores = 12;
  /// Approximate CPU memory accesses generated per core (each workload
  /// scales this by its own volume factor to mirror the paper's relative
  /// trace sizes, e.g. LU/SP are the largest).
  std::uint64_t accesses_per_core = 40000;
  std::uint64_t seed = 1;
  /// Base of the workload's data segment in physical memory.
  Addr base_addr = 1ULL << 30;
  WarpParams warp{};
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual trace::MultiTrace generate(
      const WorkloadParams& params) const = 0;

  /// Fraction of the original application's baseline runtime spent in the
  /// memory-intensive phases this trace captures. The paper reports
  /// whole-application runtimes; our traces replay only the memory-bound
  /// phases (compute-heavy stretches — FFT butterflies, LU arithmetic,
  /// RNG — are not traced). Figure 15 composes the measured memory-phase
  /// speedup with this fraction (Amdahl) to report application-level
  /// improvements comparable to the paper's. Calibrated per benchmark; see
  /// EXPERIMENTS.md.
  [[nodiscard]] virtual double memory_phase_fraction() const { return 1.0; }
};

/// The paper's 12 benchmarks, in the order the figures list them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Factory; returns nullptr for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// The workload knob table, applied by every binary that generates a
/// workload: accesses= seed= and the warp front-end's warps= warp_width=
/// lanes= max_outstanding_warps=. Each program sets its own accesses=
/// default before the overlay.
[[nodiscard]] const std::vector<desc::Knob<WorkloadParams>>& workload_knobs();

}  // namespace hmcc::workloads
