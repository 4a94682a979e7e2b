// Three-level cache hierarchy: private L1/L2 per core, shared LLC.
//
// The hierarchy is functional-with-latency: hits accumulate fixed per-level
// latencies; LLC misses are returned to the caller (the system layer), which
// fetches the line from HMC — through the memory coalescer or the baseline
// MSHR path — and later installs it with fill_llc().
//
// Modeling notes (deliberate simplifications, matching the paper's focus on
// the post-LLC path):
//  * non-inclusive, no coherence: the trace generators partition work across
//    cores the way the paper's OpenMP/MPI benchmarks do;
//  * L1/L2 fill immediately on miss (their fill latency is folded into the
//    returned hit latency); only the LLC delays fills until the memory
//    response, because LLC miss lifetime is what the MSHRs/coalescer govern;
//  * dirty L2 victims update the LLC copy if present, otherwise they are
//    written back to memory directly (victim write-no-allocate).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "cache/config.hpp"
#include "common/descriptor.hpp"
#include "common/types.hpp"

namespace hmcc::cache {

/// Where an access was satisfied.
enum class HitLevel : std::uint8_t { kL1, kL2, kLlc, kMemory };

struct HierarchyAccessResult {
  HitLevel level;
  /// Latency through the hierarchy (for kMemory: cycles burned *before* the
  /// request leaves the LLC; memory latency is added by the memory path).
  Cycle latency;
  /// Line-aligned address of the access.
  Addr line_addr;
  /// Dirty lines pushed out to memory by this access (LLC victim
  /// write-backs from the L2-eviction path).
  std::vector<Addr> memory_writebacks;
};

class Hierarchy {
 public:
  explicit Hierarchy(const HierarchyConfig& cfg);

  /// One CPU access of core @p core at @p addr (any alignment; must not span
  /// cache lines — the trace layer splits spanning accesses).
  HierarchyAccessResult access(std::uint32_t core, Addr addr, ReqType type);

  /// Install a line in the LLC after the memory response. Returns the dirty
  /// victim line address if the fill displaced one (goes to memory).
  std::optional<Addr> fill_llc(Addr line_addr, bool dirty);

  [[nodiscard]] const Cache& llc() const noexcept { return *llc_; }

  /// Hand an access result's write-back vector back so the next access()
  /// reuses its capacity. Capacity-less vectors are dropped — keeping them
  /// would save no allocation. One vector goes out per access() and at most
  /// one comes back per recycle(), so the free list stays tiny.
  void recycle(std::vector<Addr>&& writebacks);

  /// The hierarchy's metric schema: per-level cache counters as the
  /// `hmcc_cache_*{level=...}` families. L1/L2 are summed across cores
  /// (level="l1"/"l2"); the shared LLC is level="llc". Sample functions
  /// read live state: the hierarchy must outlive the returned set.
  [[nodiscard]] desc::StatSet stat_descriptors() const;

 private:
  HierarchyConfig cfg_;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;
  std::unique_ptr<Cache> llc_;
  /// Free list of capacity-retaining write-back vectors.
  std::vector<std::vector<Addr>> wb_free_;
};

}  // namespace hmcc::cache
