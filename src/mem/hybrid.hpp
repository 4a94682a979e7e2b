// The hybrid composition: HMC as a fast tier in front of the slow
// capacity tier, stitched together at page granularity by a
// set-associative tag table and (scheme=migrate) an epoch-based migration
// engine. This is the machinery behind the PR's research question — does
// 256 B packet coalescing help or hurt when pages move underneath it? —
// so migration traffic is REAL: page fills, promotions and dirty
// write-backs are kernel-scheduled packets on the same devices the demand
// stream uses, contending for the same channels and banks.
//
// Schemes (MemConfig::scheme):
//  * cache   — all data homed in the slow tier; the tag table caches hot
//              pages in the cube. A miss allocates a way (LRU victim,
//              dirty pages written back), queues the demand packet, and
//              issues a page-fill read to the slow tier; when the fill
//              data arrives the page's fill writes stream into the cube
//              and the queued demands are released to it. If every way of
//              a set is mid-fill the demand bypasses to the slow tier.
//  * migrate — pages are homed by the static split and served where they
//              currently live. Accesses to slow-homed, non-resident pages
//              are counted per epoch (first-touch order, so scans are
//              deterministic); every migrate_epoch cycles pages at or
//              above hot_threshold are promoted into the tag table
//              (evicting the LRU resident page — a demotion, with a
//              write-back if dirty). The epoch event is armed lazily by
//              submissions, so an idle kernel drains.
//  * static  — even pages fast, odd pages slow, no movement (the
//              contention floor the other two schemes are judged against).
//
// With fast_pages == 0 (the default) the fast tier is unbounded: every
// access takes the literal HmcBackend submit path and none of the tiering
// machinery runs — the degenerate point CI's byte-identity gate pins.
#pragma once

#include <unordered_map>
#include <vector>

#include "mem/backend.hpp"
#include "mem/hmc_backend.hpp"
#include "mem/slow_tier.hpp"

namespace hmcc::mem {

class HybridBackend final : public MemoryBackend {
 public:
  HybridBackend(Kernel& kernel, const hmc::HmcConfig& hmc_cfg,
                const MemConfig& cfg, CompleteFn on_complete);

  void submit(const coalescer::CoalescedPacket& pkt) override;
  [[nodiscard]] std::uint64_t outstanding() const noexcept override;
  void set_trace(obs::TraceWriter* trace) override;
  [[nodiscard]] hmc::HmcStats hmc_stats() const override {
    return fast_.hmc_stats();
  }
  [[nodiscard]] MemTierStats tier_stats() const override;
  /// The cube's schema plus the `hmcc_mem_*` tier/migration families (the
  /// hybrid-vs-hmc differential test filters on that prefix).
  [[nodiscard]] desc::StatSet stat_descriptors() const override;

 private:
  /// One way of the hot-page tag table.
  struct TagEntry {
    std::uint64_t page = 0;
    std::uint64_t last_use = 0;  ///< LRU stamp (monotone access clock)
    bool valid = false;
    bool dirty = false;
    bool pending = false;  ///< page fill in flight (cache scheme)
    /// Demand packets stalled on the in-flight fill, released FIFO.
    std::vector<coalescer::CoalescedPacket> waiters;
  };

  [[nodiscard]] std::uint64_t page_of(Addr addr) const noexcept {
    return addr / cfg_.page_bytes;
  }
  /// Home tier of a page under the static split (and migrate homing).
  [[nodiscard]] static bool fast_homed(std::uint64_t page) noexcept {
    return (page & 1) == 0;
  }
  [[nodiscard]] TagEntry* set_begin(std::uint64_t page) noexcept {
    const std::uint64_t set = page & (num_sets_ - 1);
    return table_.data() + set * cfg_.tag_ways;
  }
  /// The set's way holding @p page, or nullptr.
  [[nodiscard]] TagEntry* lookup(std::uint64_t page) noexcept;
  /// LRU victim among the set's non-pending ways (invalid first), or
  /// nullptr when every way is mid-fill.
  [[nodiscard]] TagEntry* pick_victim(std::uint64_t page) noexcept;

  /// Demand bookkeeping around the fast tier: stamp the submit cycle so
  /// the completion wrapper can accumulate demand latency.
  void note_fast_demand(const coalescer::CoalescedPacket& pkt);
  void serve_slow_demand(const coalescer::CoalescedPacket& pkt);

  /// Stream @p bytes of page data into the cube as max-size write packets
  /// (fire-and-forget migration traffic; completions only drop counters).
  void fill_fast(Addr base, std::uint32_t bytes);
  /// Write @p bytes of a demoted/evicted dirty page back to the slow tier.
  void writeback_slow(Addr base, std::uint32_t bytes);

  void submit_cache(const coalescer::CoalescedPacket& pkt);
  void submit_migrate(const coalescer::CoalescedPacket& pkt);
  void submit_static(const coalescer::CoalescedPacket& pkt);

  /// Epoch scan of the migrate scheme: promote hot slow pages, demote LRU
  /// residents, reset the counters. Re-armed only by new submissions.
  void run_epoch();

  Kernel& kernel_;
  MemConfig cfg_;
  HmcBackend fast_;
  SlowTierDevice slow_;
  CompleteFn on_complete_;
  obs::TraceWriter* trace_ = nullptr;

  std::uint64_t num_sets_ = 0;  ///< fast_pages / tag_ways, power of two
  std::vector<TagEntry> table_;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t stalled_demands_ = 0;  ///< waiters not yet at any device
  std::uint64_t next_migration_id_ = 0;

  /// Demand submit cycles, keyed by ReqId (erased at completion).
  std::unordered_map<ReqId, Cycle> inflight_;

  // --- migrate-scheme epoch state ---
  bool epoch_armed_ = false;
  /// Per-epoch access counts of slow-homed, non-resident pages in
  /// first-touch order (scanning a map would be nondeterministic).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> epoch_counts_;
  std::unordered_map<std::uint64_t, std::size_t> epoch_index_;

  MemTierStats stats_;
};

}  // namespace hmcc::mem
