// Set-associative write-back, write-allocate cache array with true LRU
// replacement.
//
// The array is functional (tags + dirty bits, no data storage: payload data
// lives in the functional memory model); timing is assigned by the hierarchy
// / system layers.  fill() and access() are separated so the LLC can delay
// its fills until the HMC response returns while private levels fill
// immediately.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/config.hpp"
#include "common/bits.hpp"
#include "common/types.hpp"

namespace hmcc::cache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  [[nodiscard]] double miss_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(misses) / static_cast<double>(total)
                 : 0.0;
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct LookupResult {
    bool hit;
    /// Address of a dirty line evicted to make room (fill paths only).
    std::optional<Addr> writeback;
  };

  /// Probe without side effects.
  [[nodiscard]] bool probe(Addr addr) const;

  /// Access with allocate-on-miss: on a miss the line is filled immediately
  /// (used by private L1/L2). Stores mark the line dirty.
  LookupResult access(Addr addr, bool is_store);

  /// Lookup only: hits update recency/dirty; misses do NOT allocate (used by
  /// the LLC, which fills on memory response via fill()).
  LookupResult lookup(Addr addr, bool is_store);

  /// Install a line (e.g. on HMC response). Returns a dirty victim if one
  /// was displaced. @p dirty marks the new line dirty (store miss fill).
  std::optional<Addr> fill(Addr addr, bool dirty);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Addr line_addr(Addr addr) const noexcept {
    return align_down(addr, cfg_.line_bytes);
  }

 private:
  struct Line {
    Addr tag = 0;
    std::uint64_t stamp = 0;  ///< recency: clock_ at the last touch
    bool valid = false;
    bool dirty = false;
  };

  [[nodiscard]] std::uint32_t set_index(Addr addr) const noexcept {
    return static_cast<std::uint32_t>((addr >> line_bits_) & (num_sets_ - 1));
  }
  [[nodiscard]] Addr tag_of(Addr addr) const noexcept {
    return addr >> line_bits_;
  }
  /// The ways of @p addr's set.
  [[nodiscard]] Line* set_of(Addr addr) noexcept {
    return lines_.data() +
           static_cast<std::size_t>(set_index(addr)) * cfg_.ways;
  }
  [[nodiscard]] Line* find(Addr addr);
  [[nodiscard]] const Line* find(Addr addr) const;

  CacheConfig cfg_;
  unsigned line_bits_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;  ///< num_sets x ways, row-major
  std::uint64_t clock_ = 0;  ///< touch counter behind Line::stamp
  CacheStats stats_;
};

}  // namespace hmcc::cache
