// Set-associative write-back, write-allocate cache array with true LRU
// replacement.
//
// The array is functional (tags + dirty bits, no data storage: payload data
// lives in the functional memory model); timing is assigned by the hierarchy
// / system layers.  fill() and access() are separated so the LLC can delay
// its fills until the HMC response returns while private levels fill
// immediately.
//
// Layout: a way is 16 bytes, one word holding the tag with the valid and
// dirty bits and one holding the 64-bit LRU stamp, so an 8-way set spans
// two host cache lines.  No line is ever invalidated and a fill takes the
// first empty way, so the valid ways of a set are always a prefix of it:
// every scan stops at the first empty way.
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
  /// One way. key = tag << 2 | kDirty? | kValid, or 0 while the way is
  /// empty; stamp = clock_ at the line's last touch.
  struct Line {
    std::uint64_t key = 0;
    std::uint64_t stamp = 0;
  };
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;

  [[nodiscard]] std::uint32_t set_index(Addr addr) const noexcept {
    return static_cast<std::uint32_t>((addr >> line_bits_) & (num_sets_ - 1));
  }
  /// The key of a clean valid line holding @p addr.
  [[nodiscard]] std::uint64_t key_of(Addr addr) const noexcept {
    return (addr >> line_bits_) << 2 | kValid;
  }
  /// The ways of @p addr's set.
  [[nodiscard]] Line* set_of(Addr addr) noexcept {
    return lines_.data() + static_cast<std::size_t>(set_index(addr)) * ways_;
  }
  [[nodiscard]] const Line* set_of(Addr addr) const noexcept {
    return lines_.data() + static_cast<std::size_t>(set_index(addr)) * ways_;
  }
  /// The way of @p set that holds the line of @p key, or ways_ if none.
  [[nodiscard]] std::uint32_t way_of(const Line* set,
                                     std::uint64_t key) const noexcept;

  CacheConfig cfg_;
  unsigned line_bits_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;
  std::vector<Line> lines_;  ///< num_sets x ways, row-major
  std::uint64_t clock_ = 0;  ///< touch counter behind Line::stamp
  /// Key of the line the last lookup() missed, or 0 once a fill() has run
  /// since: only fill() installs lines, so until then that line is known
  /// to be absent and a fill of it skips the search.
  std::uint64_t missed_ = 0;
  CacheStats stats_;
};

}  // namespace hmcc::cache
