// Bridge from the generic key=value Config store to SystemConfig: every
// platform knob of the simulated system is scriptable from a bench/example
// command line. Unknown keys are left to the caller; known keys:
//
//   cores, llc_mshrs, mlp, issue_interval
//   l1_kb, l1_ways, l2_kb, l2_ways, llc_kb, llc_ways, line_bytes
//   window, tau, timeout, max_subentries, pipeline (stage|step)
//   hmc_gb, vaults, banks, links, block_bytes, closed_page
//   t_rcd, t_cl, t_rp, t_ras, serdes, xbar, cycles_per_flit
//   mode (none|conventional|dmc-only|coalescer)
//   metrics, trace_json, trace_events, sample_interval
//
// The knobs are DECLARED once, in the platform_knobs() table
// (desc::Knob<SystemConfig>): overlay_config() parses from the table, the
// typo warnings read its key column, and the round-trip tests walk it.
// Adding a knob is one table entry.
// Invariants spanning several knobs live in the platform_constraints()
// table (desc::Constraint<SystemConfig>), checked after the overlay.
#pragma once

#include "common/config.hpp"
#include "common/descriptor.hpp"
#include "system/config.hpp"

namespace hmcc::system {

/// The platform knob table: one desc::Knob<SystemConfig> per CLI key, in
/// documentation order. Each entry carries metadata (key, kind, bounds,
/// default, help) plus apply/read functions bound to SystemConfig.
[[nodiscard]] const std::vector<desc::Knob<SystemConfig>>& platform_knobs();

/// Cross-knob structural invariants (geometry validity, window vs CRQ
/// capacity), applied by overlay_config() after
/// the knob pass. Each failing entry contributes one "key: problem" error.
[[nodiscard]] const std::vector<desc::Constraint<SystemConfig>>&
platform_constraints();

/// Overlay @p cli onto @p cfg (missing keys keep cfg's values), then
/// re-apply the mode so derived flags stay consistent. Appends one
/// "key: problem" line to @p errors per rejected value — malformed scalars,
/// out-of-bounds values, unknown enum spellings, and structurally invalid
/// combinations (e.g. non-power-of-two vaults). Returns true iff nothing
/// was appended. Valid knobs still apply when others fail.
bool overlay_config(const Config& cli, SystemConfig& cfg,
                    std::vector<std::string>& errors);

/// Convenience: the paper platform with @p cli overlaid.
/// @throws std::invalid_argument listing every rejected knob, one per line.
[[nodiscard]] SystemConfig config_from_cli(const Config& cli);

/// Every key overlay_config consumes (the key column of platform_knobs()).
/// Harnesses union this with their own keys to flag typo'd knobs: a
/// "thread=8" that matches nothing would otherwise silently run with the
/// default.
[[nodiscard]] const std::vector<std::string>& platform_cli_keys();

}  // namespace hmcc::system
