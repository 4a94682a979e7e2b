// Bridge from the generic key=value Config store to SystemConfig: every
// platform knob of the simulated system is scriptable from a bench/example
// command line.
//
// The knobs are DECLARED once, in the platform_knobs() table
// (desc::Knob<SystemConfig>): desc::overlay() applies it, desc::Args
// rejects every key outside it and the program's other tables, and the
// round-trip tests walk it. Adding a knob is one table entry.
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

/// Overlay @p cli onto @p cfg (missing keys keep cfg's values) through
/// desc::overlay(), then re-apply the mode so derived flags stay consistent
/// and check platform_constraints(). Appends one "key: problem" line to
/// @p errors per rejected value — malformed scalars, out-of-bounds values,
/// unknown enum spellings, and structurally invalid combinations (e.g.
/// non-power-of-two vaults). Returns true iff nothing was appended. Valid
/// knobs still apply when others fail.
bool overlay_config(const Config& cli, SystemConfig& cfg,
                    std::vector<std::string>& errors);

/// Convenience: the paper platform with @p cli overlaid.
/// @throws std::invalid_argument listing every rejected knob, one per line.
[[nodiscard]] SystemConfig config_from_cli(const Config& cli);

/// A binary's platform: the paper platform with @p args' platform keys
/// overlaid and checked. Declares every platform key; each problem goes to
/// @p args, which reports it from finish().
[[nodiscard]] SystemConfig platform_from(desc::Args& args);

}  // namespace hmcc::system
