// Cache hierarchy configuration.
//
// Defaults approximate the paper's simulated 12-CPU platform: per-core
// L1/L2, a shared LLC with 16 MSHRs, 64 B lines everywhere.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace hmcc::cache {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;
  std::uint32_t line_bytes = arch::kLineSize;
  Cycle hit_latency = 4;

  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return static_cast<std::uint32_t>(size_bytes / line_bytes / ways);
  }
  [[nodiscard]] bool valid() const noexcept {
    return size_bytes > 0 && ways > 0 && is_pow2(line_bytes) &&
           size_bytes % (static_cast<std::uint64_t>(line_bytes) * ways) == 0 &&
           is_pow2(num_sets());
  }
};

struct HierarchyConfig {
  std::uint32_t num_cores = 12;
  CacheConfig l1{.size_bytes = 32 * 1024, .ways = 8, .hit_latency = 4};
  CacheConfig l2{.size_bytes = 256 * 1024, .ways = 8, .hit_latency = 12};
  CacheConfig llc{.size_bytes = 2 * 1024 * 1024, .ways = 16,
                  .hit_latency = 30};
  /// LLC MSHR file size (paper: "16 MSHRs in LLC").
  std::uint32_t llc_mshrs = 16;
};

}  // namespace hmcc::cache
