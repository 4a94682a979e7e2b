// Top-level HMC device model.
//
// Public API: submit() a RequestPacket and receive a ResponsePacket via
// callback when the transaction's last response FLIT arrives.  Internally the
// device routes packets link -> crossbar/NoC -> vault -> bank and back and
// aggregates the bandwidth statistics the paper's Figures 1, 9 and 11 are
// built from.
//
// Vault scheduling: every request is admitted to its vault's bounded queue
// and leaves it through the configured policy (cfg.sched). Under FCFS (the
// default) admission and service coincide — the vault/bank timing math runs
// inline at submit() and only the completion callback is deferred through
// the kernel, exactly the historical behavior. Under FR-FCFS/batch the
// device defers draining: a per-vault kernel event fires at the queue's
// next_ready() cycle and serves one policy pick per controller slot, so the
// policy sees every request that has arrived by the decision cycle.
//
// NoC: with cfg.noc == kQuadrant the flat crossbar constant is replaced by
// a quadrant hop model — requests enter on a rotating host link and pay
// xbar_latency + hops * noc_hop_latency to the vault's quadrant, whose
// ingress router port serializes packets per direction (link-to-vault
// contention). kOff keeps the historical flat constant.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/descriptor.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "hmc/address_map.hpp"
#include "hmc/config.hpp"
#include "hmc/link.hpp"
#include "hmc/packet.hpp"
#include "hmc/vault.hpp"
#include "sim/kernel.hpp"

namespace hmcc::obs {
class TraceWriter;
}  // namespace hmcc::obs

namespace hmcc::hmc {

/// Device-level traffic statistics (wire accounting).
struct HmcStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t payload_bytes = 0;      ///< data bytes of all packets
  std::uint64_t transferred_bytes = 0;  ///< payload + control on the wire
  std::uint64_t control_bytes = 0;
  std::uint64_t bank_conflicts = 0;
  std::uint64_t row_activations = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t noc_hops = 0;       ///< quadrant hops traversed (noc=quadrant)
  std::uint64_t noc_contended = 0;  ///< traversals delayed at a router port
  std::uint64_t sched_row_hit_picks = 0;  ///< policy picks that hit open rows
  std::uint64_t sched_starved_serves = 0;  ///< picks forced by the starve cap
  Accumulator latency;  ///< end-to-end transaction latency, cycles

  /// The paper's Equation (1): requested / transferred.
  [[nodiscard]] double bandwidth_efficiency() const noexcept {
    return transferred_bytes
               ? static_cast<double>(payload_bytes) /
                     static_cast<double>(transferred_bytes)
               : 0.0;
  }
};

class HmcDevice {
 public:
  using ResponseCallback = std::function<void(const ResponsePacket&)>;

  HmcDevice(Kernel& kernel, HmcConfig cfg);

  /// Submit a transaction. @p pkt.addr must not cross an HMC block boundary
  /// (enforced by assertion; the coalescer guarantees it by construction).
  /// @p on_response fires exactly once at completion time.
  void submit(const RequestPacket& pkt, ResponseCallback on_response);

  [[nodiscard]] const AddressMap& address_map() const noexcept { return map_; }

  /// Snapshot wire statistics (bank counters are aggregated on demand).
  [[nodiscard]] HmcStats stats() const;

  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return outstanding_;
  }

  /// Attach a chrome-trace writer (nullptr detaches); forwarded to every
  /// vault, which emit per-bank row-buffer spans (row_open / row_hit /
  /// row_conflict) while attached.
  void set_trace(obs::TraceWriter* trace) noexcept;

  /// The device's metric schema: wire counters (`hmcc_hmc_*`: reads/writes,
  /// payload vs transferred bytes, bank conflicts, row activations/hits,
  /// NoC hops/contention, bandwidth efficiency, mean latency) plus
  /// per-vault labeled families (`hmcc_hmc_vault_*{vault="N"}`) including
  /// the in-flight and scheduler queue-depth sampled gauges and per-policy
  /// row-hit-pick / starved-serve counters. Sample functions read live
  /// state: the device must outlive the returned set.
  [[nodiscard]] desc::StatSet stat_descriptors() const;

 private:
  /// Response context of one transaction, held from submission to its
  /// completion event. Slab-allocated and reused; a transaction's token is
  /// its slab index + 1 (VaultRequest::token under deferred scheduling).
  struct PendingCtx {
    std::uint32_t link_idx = 0;
    std::uint32_t resp_flits = 0;
    ResponsePacket resp{};
    ResponseCallback cb;
  };

  [[nodiscard]] bool deferred_sched() const noexcept {
    return cfg_.sched != SchedPolicy::kFcfs;
  }

  /// NoC traversal @p from_q -> @p to_q entering at @p enter: hop latency
  /// plus serialization at the destination quadrant's router port (one port
  /// array per direction). Returns the cycle the last FLIT arrives.
  Cycle noc_traverse(std::vector<Cycle>& ports, std::uint32_t from_q,
                     std::uint32_t to_q, std::uint32_t flits, Cycle enter);

  /// Link-side arrival cycle of a response whose payload is ready at the
  /// vault edge at @p data_ready (crossbar or NoC, then SerDes).
  Cycle response_at_link(std::uint32_t link_idx, std::uint32_t vault_quadrant,
                         std::uint32_t flits, Cycle data_ready);

  /// Deferred drain: serve policy picks while the vault is ready, then arm
  /// a kernel event at the queue's next_ready() cycle (per-vault generation
  /// counter invalidates superseded events).
  void pump_vault(std::uint32_t vault_idx);

  /// Route a served transaction's response back to its link and schedule
  /// its completion event, which frees its slot and runs its callback.
  void respond(std::uint32_t vault_idx, const VaultServed& served);

  Kernel& kernel_;
  HmcConfig cfg_;
  AddressMap map_;
  std::vector<Link> links_;
  std::vector<Vault> vaults_;
  HmcStats wire_;
  std::uint64_t outstanding_ = 0;
  std::vector<std::uint64_t> vault_depth_;
  std::uint8_t next_tag_ = 0;
  obs::TraceWriter* trace_ = nullptr;

  // --- NoC state (inert under noc=off) ---
  std::vector<Cycle> noc_req_ports_;   ///< per-quadrant ingress busy-until
  std::vector<Cycle> noc_resp_ports_;  ///< per-quadrant egress busy-until
  std::uint64_t noc_hops_ = 0;
  std::uint64_t noc_contended_ = 0;
  std::uint32_t next_host_link_ = 0;  ///< rotating entry link (noc=quadrant)

  std::vector<PendingCtx> pending_;
  std::vector<std::uint64_t> free_ctx_;  ///< reusable pending_ tokens

  // --- deferred-scheduling state (inert under sched=fcfs) ---
  std::vector<std::uint64_t> drain_gen_;
  std::vector<Cycle> drain_at_;
  std::vector<std::uint8_t> drain_armed_;
};

}  // namespace hmcc::hmc
