// GPU/warp SIMT front-end: warp-shaped trace generation (DESIGN.md §12).
//
// The paper's coalescer aggregates LLC misses from CPU cores, but the same
// hardware sits naturally behind a GPU-style SM whose warps issue vector
// memory instructions. This front-end models that producer at generation
// time: each core hosts `warps` resident warps; a warp's vector instruction
// yields `warp_width` lane addresses; the intra-warp merge (same-line dedup
// plus contiguous-run detection, the classic coalescing-unit algorithm)
// collapses the vector into one TraceRecord per contiguous run of 64 B
// lines. Those records ARE the warp's LLC-miss stream — they feed the
// ordinary trace::MultiTrace path into the coalescer, so every datapath
// mode, bench and codec works on warp traces unchanged.
//
// Scheduling is virtual (generation-time) but deterministic in
// (seed, params): ready warps issue round-robin, a warp suspends for
// base + bursts * per-burst virtual cycles after issuing, and at most
// `max_outstanding_warps` warps wait on memory at once — so the interleave
// of warp streams, and hence the coalescing opportunity downstream, is
// MLP-bounded exactly like a real SM's scoreboard would make it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/descriptor.hpp"
#include "workloads/workload.hpp"

namespace hmcc::workloads {

/// Line size the intra-warp merge coalesces to (matches the LLC/coalescer).
inline constexpr std::uint32_t kWarpLineBytes = 64;

/// One contiguous run of cache lines produced by the intra-warp merge.
struct WarpRun {
  Addr addr = 0;            ///< line-aligned base of the run
  std::uint32_t lines = 0;  ///< run length in 64 B lines (>= 1)
};

/// Intra-warp merge: collect the distinct 64 B lines touched by the lane
/// accesses [a, a + access_bytes), sort them, and group maximal contiguous
/// runs. A fully converged warp (unit-stride lanes) collapses to one run;
/// a fully divergent one yields warp_width single-line runs. Exposed for
/// unit tests; the generators call it per vector instruction.
[[nodiscard]] std::vector<WarpRun> coalesce_warp_vector(
    const std::vector<Addr>& lane_addrs, std::uint32_t access_bytes);

/// Declarative knob table for WarpParams: warps= warp_width= lanes=
/// max_outstanding_warps= (bench scope). bench_knobs() wraps these onto
/// BenchEnv so the suite's parser and typo warnings pick them up
/// automatically; the workbench applies them via warp_params_from_cli().
[[nodiscard]] const std::vector<desc::Knob<WarpParams>>& warp_knobs();

/// Apply any warp knobs present in @p cli over the defaults. Throws
/// std::invalid_argument naming the knob on a malformed value.
[[nodiscard]] WarpParams warp_params_from_cli(const Config& cli);

namespace detail {
std::unique_ptr<Workload> make_warp_gups();   // gather/update, divergent
std::unique_ptr<Workload> make_warp_saxpy();  // unit-stride, converged
std::unique_ptr<Workload> make_warp_chase();  // per-lane pointer chase
}  // namespace detail

}  // namespace hmcc::workloads
