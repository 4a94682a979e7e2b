// Shared plumbing for the figure-reproduction benches.
//
// Every bench prints an ASCII table mirroring one figure of the paper and
// writes the same rows as CSV (<bench-name>.csv in the working directory).
// Command-line "key=value" pairs override workload size and platform knobs
// so the full suite stays fast by default but can be scaled up:
//   accesses=<n>  per-core CPU accesses (default 15000)
//   seed=<n>      workload RNG seed
//   csv=<path>    CSV output path ("" disables)
//
// Malformed arguments (no '=') and unknown keys are warned about on stderr:
// a typo'd "thread=8" must not silently run single-threaded. The platform
// key list lives in system/config_bridge.hpp.
//
// A bench's points run in parallel but its results are collected in input
// order, so tables and CSVs are identical for any bench_suite threads=.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "coalescer/dmc_unit.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"
#include "workloads/warp.hpp"
#include "workloads/workload.hpp"

namespace hmcc::bench {

struct BenchEnv {
  Config cli;
  workloads::WorkloadParams params;
  std::string csv_path;

  /// The paper platform with any CLI overrides applied (see
  /// system/config_bridge.hpp for the full key list).
  system::SystemConfig base_config() const {
    return system::config_from_cli(cli);
  }
};

/// The harness knob table: desc::Knob<BenchEnv> entries for the keys
/// BenchEnv itself consumes, mirroring the platform table in
/// system/config_bridge.cpp. make_env() parses from it and the typo
/// warnings read its key column, so the two can't drift. default_value holds
/// the common default; accesses and csv have per-bench defaults that
/// make_env() applies before the overlay.
inline const std::vector<desc::Knob<BenchEnv>>& bench_knobs() {
  static const std::vector<desc::Knob<BenchEnv>> table = [] {
    std::vector<desc::Knob<BenchEnv>> t;
    t.push_back(desc::uint_knob<BenchEnv>(
        "accesses", "bench", "CPU accesses per core", 1, ~0ULL,
        [](const BenchEnv& e) { return e.params.accesses_per_core; },
        [](BenchEnv& e, std::uint64_t v) { e.params.accesses_per_core = v; }));
    t.push_back(desc::uint_knob<BenchEnv>(
        "seed", "bench", "workload RNG seed", 0, ~0ULL,
        [](const BenchEnv& e) { return e.params.seed; },
        [](BenchEnv& e, std::uint64_t v) { e.params.seed = v; }));
    t.push_back(desc::string_knob<BenchEnv>(
        "csv", "bench", "CSV output path (\"\" disables)",
        [](const BenchEnv& e) { return e.csv_path; },
        [](BenchEnv& e, std::string v) { e.csv_path = std::move(v); }));
    t[0].meta.default_value = "15000";
    t[1].meta.default_value = "1";
    t[2].meta.default_value = "<bench>.csv";
    // The warp front-end's canonical table (workloads/warp.hpp), re-targeted
    // at BenchEnv so warps=/warp_width=/lanes=/max_outstanding_warps= flow
    // through the same metadata and typo-warning paths as the rest.
    for (const desc::Knob<workloads::WarpParams>& wk :
         workloads::warp_knobs()) {
      desc::Knob<BenchEnv> k;
      k.meta = wk.meta;
      k.apply = [&wk](BenchEnv& e, const std::string& raw) {
        return wk.apply(e.params.warp, raw);
      };
      k.read = [&wk](const BenchEnv& e) { return wk.read(e.params.warp); };
      t.push_back(std::move(k));
    }
    return t;
  }();
  return table;
}

/// Keys consumed by BenchEnv itself (on top of the platform keys).
inline const std::vector<std::string>& bench_cli_keys() {
  static const std::vector<std::string> keys =
      desc::knob_keys(bench_knobs());
  return keys;
}

/// Warn on stderr for every malformed argv token and for every parsed key
/// not present in @p known (pass extra harness-specific keys through
/// @p extra_known). Warnings never abort: the benches still run with
/// whatever was understood, but the typo is visible.
inline void warn_unrecognized(const Config& cli,
                              const std::vector<std::string>& rejected,
                              const std::vector<std::string>& extra_known = {}) {
  for (const std::string& tok : rejected) {
    std::fprintf(stderr,
                 "warning: ignoring malformed argument '%s' (expected "
                 "key=value)\n",
                 tok.c_str());
  }
  auto known = [&](const std::string& key) {
    const auto& platform = system::platform_cli_keys();
    const auto& bench = bench_cli_keys();
    return std::find(platform.begin(), platform.end(), key) != platform.end() ||
           std::find(bench.begin(), bench.end(), key) != bench.end() ||
           std::find(extra_known.begin(), extra_known.end(), key) !=
               extra_known.end();
  };
  for (const auto& [key, value] : cli.values()) {
    if (!known(key)) {
      std::fprintf(stderr, "warning: unknown knob '%s=%s' ignored\n",
                   key.c_str(), value.c_str());
    }
  }
}

/// Build a BenchEnv from an already-parsed Config. The CSV path defaults to
/// "<bench_name>.csv".
inline BenchEnv make_env(const Config& cli, const char* bench_name,
                         std::uint64_t default_accesses = 15000) {
  BenchEnv env;
  env.cli = cli;
  // Per-bench defaults first, then the knob table overlays whatever the CLI
  // provides. A rejected value warns and keeps the default — benches stay
  // best-effort like the historical parser; bench_suite pre-validates the
  // PLATFORM knobs, which can invalidate a whole run.
  env.params.accesses_per_core = default_accesses;
  env.params.seed = 1;
  env.csv_path = std::string(bench_name) + ".csv";
  for (const auto& k : bench_knobs()) {
    if (!env.cli.has(k.meta.key)) continue;
    const std::string raw = env.cli.get_string(k.meta.key, "");
    const std::string err = k.apply(env, raw);
    if (!err.empty()) {
      std::fprintf(stderr, "warning: knob '%s=%s' rejected (%s); keeping "
                   "default\n",
                   k.meta.key.c_str(), raw.c_str(), err.c_str());
    }
  }
  return env;
}

/// Payload-granularity coalescing of a captured LLC miss stream, the
/// paper's method for Figures 9-10: cut @p stream into batches of @p window
/// requests in arrival order, sort each batch by sort key and merge it with
/// coalescer::coalesce_payload(). Returns every batch's packets in order.
inline std::vector<coalescer::CoalescedPacket> payload_packets(
    const std::vector<coalescer::CoalescerRequest>& stream,
    std::size_t window) {
  const coalescer::CoalescerConfig cfg;
  std::vector<coalescer::CoalescedPacket> packets;
  for (std::size_t i = 0; i < stream.size(); i += window) {
    const std::size_t end = std::min(stream.size(), i + window);
    std::vector<coalescer::CoalescerRequest> batch(
        stream.begin() + static_cast<std::ptrdiff_t>(i),
        stream.begin() + static_cast<std::ptrdiff_t>(end));
    std::stable_sort(batch.begin(), batch.end(),
                     [](const coalescer::CoalescerRequest& a,
                        const coalescer::CoalescerRequest& b) {
                       return a.sort_key() < b.sort_key();
                     });
    coalescer::DmcResult res = coalescer::coalesce_payload(cfg, batch, 0);
    packets.insert(packets.end(), std::make_move_iterator(res.packets.begin()),
                   std::make_move_iterator(res.packets.end()));
  }
  return packets;
}

}  // namespace hmcc::bench
