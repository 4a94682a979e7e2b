// Full-system configuration (paper §5.2 platform).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "cache/config.hpp"
#include "coalescer/config.hpp"
#include "common/types.hpp"
#include "hmc/config.hpp"
#include "mem/config.hpp"

namespace hmcc::system {

/// Which post-LLC miss-handling datapath to simulate.
enum class CoalescerMode : std::uint8_t {
  /// Every miss gets its own MSHR entry, fixed 64 B requests, no merging.
  kNone,
  /// Conventional MSHR-based coalescing: fixed 64 B requests, outstanding
  /// misses to the same line merge as subentries (Fig 8 "MSHR" series).
  kConventional,
  /// First-phase only: sorting network + DMC unit, no MSHR merging
  /// (Fig 8 "DMC" series).
  kDmcOnly,
  /// The full two-phase memory coalescer with stage-select bypass.
  kFull,
};

[[nodiscard]] constexpr const char* to_string(CoalescerMode m) noexcept {
  switch (m) {
    case CoalescerMode::kNone: return "none";
    case CoalescerMode::kConventional: return "conventional";
    case CoalescerMode::kDmcOnly: return "dmc-only";
    case CoalescerMode::kFull: return "coalescer";
  }
  return "?";
}

/// Simple out-of-order core front end: issues one memory access per
/// issue_interval while it has an outstanding-miss slot free.
struct CoreConfig {
  std::uint32_t max_outstanding_misses = 16;  ///< per-core MLP
  Cycle issue_interval = 1;                   ///< cycles between accesses
};

/// Observability knobs. Everything defaults OFF: with the defaults a System
/// builds no registry and no trace writer, and every instrumented call site
/// reduces to a null-pointer test — runs are byte-identical to an
/// uninstrumented build.
struct ObsConfig {
  /// Build a per-System metrics registry and publish the sim counters into
  /// it at the end of run() (System::metrics() then returns non-null).
  bool metrics = false;
  /// When non-empty, collect chrome://tracing events during run() and write
  /// them to this path (atomically, temp-file + rename) when the run ends.
  std::string trace_json;
  /// Event cap for the trace buffer; later events are counted as dropped.
  std::uint64_t trace_max_events = 1u << 20;
  /// When metrics is on and this is non-zero, sample every `sampled` stat
  /// descriptor (CRQ occupancy, MSHR occupancy) into the registry every
  /// this-many cycles during run(): each tick sets the gauge and feeds a
  /// `<name>_samples` histogram, so the registry holds the occupancy
  /// DISTRIBUTION, not just the end-of-run value. 0 = off. The sampler only
  /// reads simulator state — results are identical with it on or off.
  Cycle sample_interval = 0;
};

/// Trace corpus record/replay (the `.hmct` codec in src/trace/codec.hpp).
/// Both default off. Record captures the generated MultiTrace to disk
/// (atomic temp+rename, so a sweep point crashing mid-write never leaves a
/// torn corpus file); replay substitutes a trace file for the generator so
/// a captured workload re-runs byte-identically anywhere. Record from a
/// single run, not a multi-point sweep — concurrent points would race on
/// the output path (last rename wins).
struct TraceIoConfig {
  std::string record_path;  ///< when non-empty, write the trace here
  std::string replay_path;  ///< when non-empty, replay this file instead
};

struct SystemConfig {
  cache::HierarchyConfig hierarchy{};  // 12 cores, 16 LLC MSHRs
  hmc::HmcConfig hmc{};                // 8 GB, 256 B blocks
  mem::MemConfig mem{};                // mem=hmc: the bare cube (default)
  coalescer::CoalescerConfig coalescer{};
  CoreConfig core{};
  CoalescerMode mode = CoalescerMode::kFull;
  ObsConfig obs{};
  TraceIoConfig trace_io{};
};

/// Upper bound on the delay of any ROUTINE event the simulator schedules
/// under @p cfg: the unloaded round trip of a maximum-size packet (link
/// serialization both ways, SerDes + crossbar both ways, a worst-case DRAM
/// row cycle) plus the coalescer's window timeout and its sort + merge
/// pipeline time for one full window. Queueing can push individual events
/// past this bound — those take the kernel's overflow heap, which is
/// correct, just not O(1) — so the bound sizes the fast path, it does not
/// limit what can be simulated.
[[nodiscard]] inline Cycle worst_case_event_delay(
    const SystemConfig& cfg) noexcept {
  const auto& h = cfg.hmc;
  const auto& c = cfg.coalescer;
  const Cycle flits =
      static_cast<Cycle>(c.max_packet_bytes / hmcspec::kFlitBytes) + 2;
  const Cycle link_round_trip =
      2 * (h.serdes_latency + h.xbar_latency) + 2 * flits * h.cycles_per_flit;
  const Cycle dram_row_cycle =
      h.vault_ctrl_latency + h.t_rcd + h.t_cl + h.t_rp + h.t_ras +
      h.t_column_burst * static_cast<Cycle>(c.max_packet_bytes / 32);
  const Cycle coalescer_window =
      c.timeout + 4 * c.tau * static_cast<Cycle>(c.window);
  // Quadrant NoC worst case: the maximum hop distance is the bit width of
  // the largest quadrant id, paid in both directions (zero-cost under
  // noc=off since the default hop latency only matters when enabled, but
  // the slack is cheap so it is always budgeted).
  const Cycle noc_hops_worst = static_cast<Cycle>(
      std::bit_width(std::max(h.num_links, 1u) - 1));
  const Cycle noc_round_trip = 2 * noc_hops_worst * h.noc_hop_latency;
  // Deferred vault scheduling: a drain event fires at the queue's
  // next_ready(), at most one controller slot per queued entry beyond the
  // timings above.
  const Cycle sched_drain =
      static_cast<Cycle>(h.vault_queue_depth) * h.vault_ctrl_latency;
  // The hybrid backend adds the slow tier's unloaded service time for one
  // page-sized transfer (a fill read is the longest routine event it
  // schedules). The default `mem=hmc` budget is untouched, so the default
  // ring size — and with it every default-path allocation pattern — stays
  // exactly what it was before the backend seam.
  Cycle slow_round_trip = 0;
  if (cfg.mem.backend == mem::BackendKind::kHybrid) {
    const auto& s = cfg.mem.slow;
    slow_round_trip = s.ctrl_latency + s.t_rp + s.t_rcd + s.t_cl +
                      s.t_column_burst *
                          static_cast<Cycle>(cfg.mem.page_bytes / 32);
  }
  return link_round_trip + dram_row_cycle + coalescer_window +
         noc_round_trip + sched_drain + slow_round_trip;
}

/// Derive the coalescer flag set for @p mode (leaves other knobs intact).
inline void apply_mode(SystemConfig& cfg, CoalescerMode mode) {
  cfg.mode = mode;
  auto& c = cfg.coalescer;
  switch (mode) {
    case CoalescerMode::kNone:
      c.enable_dmc = false;
      c.enable_mshr_merge = false;
      c.enable_bypass = false;
      break;
    case CoalescerMode::kConventional:
      c.enable_dmc = false;
      c.enable_mshr_merge = true;
      c.enable_bypass = false;
      break;
    case CoalescerMode::kDmcOnly:
      c.enable_dmc = true;
      c.enable_mshr_merge = false;
      c.enable_bypass = true;
      break;
    case CoalescerMode::kFull:
      c.enable_dmc = true;
      c.enable_mshr_merge = true;
      c.enable_bypass = true;
      break;
  }
  c.num_mshrs = cfg.hierarchy.llc_mshrs;
}

}  // namespace hmcc::system
