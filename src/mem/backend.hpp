// The memory-backend seam: everything the System needs from "whatever sits
// behind the coalescer", as one small interface.
//
// The System used to hard-wire hmc::HmcDevice; this seam makes the memory
// stack pluggable without perturbing the default path — HmcBackend is a
// thin adapter whose submit() is the verbatim pre-seam issue path, so
// `mem=hmc` (the default) is byte-identical to the pre-refactor simulator
// and CI's golden gate pins it. HybridBackend composes the cube with a
// flat DDR/NVM-style channel device behind a hot-page tag table and
// migration engine (mem/hybrid.hpp).
//
// Contract notes:
//  * submit() must eventually invoke the CompleteFn exactly once per demand
//    packet with the packet's id; migration/fill traffic a backend issues
//    on its own behalf is NOT reported through CompleteFn.
//  * outstanding() counts every in-flight transaction, demand and
//    migration alike — run() uses it for the drained check, so a backend
//    that loses track of a fill would be caught by the drain tests.
//  * stat_descriptors() of the default backend must be exactly the wrapped
//    device's schema (no extra families), so `mem=hmc` Prometheus text
//    matches the pre-seam baseline byte for byte.
#pragma once

#include <functional>
#include <memory>

#include "coalescer/request.hpp"
#include "common/descriptor.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "hmc/config.hpp"
#include "hmc/device.hpp"
#include "mem/config.hpp"
#include "sim/kernel.hpp"

namespace hmcc::obs {
class TraceWriter;
}  // namespace hmcc::obs

namespace hmcc::mem {

/// Tier-level accounting of the pluggable backends. For the default
/// HmcBackend everything below is zero (its story is told by HmcStats);
/// the hybrid backend fills in both sides of the split.
struct MemTierStats {
  std::uint64_t fast_hits = 0;       ///< demand packets served by the cube
  std::uint64_t slow_accesses = 0;   ///< demand packets served by the slow tier
  std::uint64_t page_fills = 0;      ///< cache-scheme page fills (misses)
  std::uint64_t promotions = 0;      ///< migrate-scheme slow->fast moves
  std::uint64_t demotions = 0;       ///< fast->slow evictions/migrations
  std::uint64_t dirty_writebacks = 0;  ///< demotions that carried dirty data
  std::uint64_t migration_packets = 0;  ///< fill+migration packets issued
  std::uint64_t migration_bytes = 0;    ///< payload bytes moved tier-to-tier
  std::uint64_t epochs = 0;             ///< migration epochs evaluated
  std::uint64_t slow_row_hits = 0;
  std::uint64_t slow_row_conflicts = 0;
  Accumulator demand_latency;  ///< submit->complete cycles, demand packets

  /// Demand fraction served by the fast tier (1.0 for the bare cube).
  [[nodiscard]] double fast_hit_rate() const noexcept {
    const std::uint64_t total = fast_hits + slow_accesses;
    return total ? static_cast<double>(fast_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

class MemoryBackend {
 public:
  /// Completion notification: fires exactly once per submitted demand
  /// packet, with that packet's coalescer-assigned id.
  using CompleteFn = std::function<void(ReqId)>;

  virtual ~MemoryBackend() = default;

  /// Accept one coalesced packet. The packet never crosses an HMC block
  /// boundary (guaranteed by the coalescer).
  virtual void submit(const coalescer::CoalescedPacket& pkt) = 0;

  /// In-flight transactions, demand and backend-internal traffic alike.
  [[nodiscard]] virtual std::uint64_t outstanding() const noexcept = 0;

  /// Attach/detach a chrome-trace writer (packet spans, migration spans).
  virtual void set_trace(obs::TraceWriter* trace) = 0;

  /// Wire statistics of the embedded cube.
  [[nodiscard]] virtual hmc::HmcStats hmc_stats() const = 0;

  /// Tier split / migration accounting (zeros for the bare cube).
  [[nodiscard]] virtual MemTierStats tier_stats() const { return {}; }

  /// The backend's metric schema. The System must outlive the set.
  [[nodiscard]] virtual desc::StatSet stat_descriptors() const = 0;
};

/// Build the backend selected by @p cfg.backend. @p hmc_cfg configures the
/// embedded cube (hmc/hybrid); @p on_complete receives demand completions.
[[nodiscard]] std::unique_ptr<MemoryBackend> make_backend(
    Kernel& kernel, const hmc::HmcConfig& hmc_cfg, const MemConfig& cfg,
    MemoryBackend::CompleteFn on_complete);

}  // namespace hmcc::mem
