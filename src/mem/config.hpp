// Memory-backend configuration: which device family sits behind the
// coalescer (the `mem=` knob) and, for the hybrid composition, how the
// fast/slow tiers are stitched together (`scheme=`, `page_bytes=`,
// `fast_pages=`, `tag_ways=`, `migrate_epoch=`, `hot_threshold=`) plus the
// slow tier's channel/row timing profile (`slow_*`).
//
// Defaults are chosen so that `mem=hybrid` with an UNCONFIGURED fast tier
// (fast_pages = 0) degenerates to the bare HMC: every page is considered
// resident in the fast tier and no slow-tier or migration machinery runs,
// which is what lets CI pin the hybrid seam against the same byte-identity
// golden as `mem=hmc`. Real tiering starts when fast_pages > 0.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace hmcc::mem {

/// Which device family serves coalesced packets (the `mem=` knob).
enum class BackendKind : std::uint8_t {
  /// The paper's bare HMC cube (default; byte-identical to the pre-seam
  /// simulator).
  kHmc,
  /// HMC as a fast tier composed with the slow tier behind a hot-page tag
  /// table and migration engine (the `scheme=` knob picks the policy).
  kHybrid,
};

[[nodiscard]] constexpr const char* to_string(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::kHmc: return "hmc";
    case BackendKind::kHybrid: return "hybrid";
  }
  return "?";
}

/// How the hybrid backend splits pages across the two tiers.
enum class HybridScheme : std::uint8_t {
  /// HMC-as-cache: all data is homed in the slow tier; a tag-table miss
  /// stalls the demand packet while the page is filled from the slow tier
  /// (fill reads contend on the slow channels, fill writes on the cube).
  kCache,
  /// Epoch-based hot-page migration: pages are homed by the static split
  /// and served where they live; every migrate_epoch cycles, slow pages
  /// with >= hot_threshold accesses are promoted (and cold fast pages
  /// demoted, dirty ones with a write-back) via real migration packets.
  kMigrate,
  /// Static address split, no movement: even pages fast, odd pages slow.
  kStatic,
};

[[nodiscard]] constexpr const char* to_string(HybridScheme s) noexcept {
  switch (s) {
    case HybridScheme::kCache: return "cache";
    case HybridScheme::kMigrate: return "migrate";
    case HybridScheme::kStatic: return "static";
  }
  return "?";
}

/// Flat capacity-tier device: a handful of DDR/NVM channels, open-page
/// row-buffer timing, and a bandwidth profile set by the per-column burst
/// cost. All timing is in the simulator's single 3.3 GHz CPU-cycle clock
/// domain, like hmc::HmcConfig. Defaults sketch a DDR4-ish channel pair:
/// ~2x the cube's row latencies, 4x its per-column streaming cost.
struct SlowTierConfig {
  std::uint32_t num_channels = 2;
  /// Channel-controller processing overhead per request.
  Cycle ctrl_latency = 40;
  /// Row activate / column access / precharge, CPU cycles.
  Cycle t_rcd = 100;
  Cycle t_cl = 100;
  Cycle t_rp = 100;
  /// Cycles to stream one 32 B column out of the arrays (bandwidth knob).
  Cycle t_column_burst = 16;
  /// DRAM row (page buffer) size per channel in bytes.
  std::uint32_t row_bytes = 8192;

  [[nodiscard]] bool valid() const noexcept {
    return num_channels >= 1 && is_pow2(row_bytes) && row_bytes >= 64;
  }
};

struct MemConfig {
  BackendKind backend = BackendKind::kHmc;
  HybridScheme scheme = HybridScheme::kCache;
  SlowTierConfig slow{};
  /// Migration/caching granularity in bytes (an OS page by default).
  std::uint32_t page_bytes = 4096;
  /// Fast-tier capacity of the hybrid composition in pages. 0 = unbounded:
  /// every page is fast-resident and the composition collapses to the bare
  /// HMC (the CI byte-identity degenerate point).
  std::uint64_t fast_pages = 0;
  /// Associativity of the hot-page tag table (cache/migrate schemes).
  std::uint32_t tag_ways = 8;
  /// Migration epoch length in cycles (scheme=migrate).
  Cycle migrate_epoch = 100000;
  /// Accesses within one epoch that make a slow page promotion-worthy.
  std::uint32_t hot_threshold = 8;

  [[nodiscard]] bool tiered() const noexcept {
    return backend == BackendKind::kHybrid && fast_pages > 0;
  }
};

}  // namespace hmcc::mem
