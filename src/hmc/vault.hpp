// Vault controller: one per vault, owning the vault's DRAM banks and a
// bounded request queue drained by a pluggable scheduling policy.
//
// Every request enters the queue and leaves it through the policy's pick —
// there is no second service path. Under the default FCFS policy the device
// serves each request the moment it is admitted (push, pick, pop), which
// computes exactly the numbers the historical queue-less controller did, so
// default output is byte-identical; under FR-FCFS/batch the device defers
// draining to the request's decision cycle (serve_next) and the policy may
// reorder within the queue. The controller occupies its command pipeline
// for a fixed number of cycles per request and dispatches to the target
// bank; bank-level parallelism is preserved (only same-bank requests
// serialize on DRAM timing).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "hmc/address_map.hpp"
#include "hmc/bank.hpp"
#include "hmc/config.hpp"
#include "hmc/scheduler.hpp"

namespace hmcc::obs {
class TraceWriter;
}  // namespace hmcc::obs

namespace hmcc::hmc {

struct VaultServiceResult {
  Cycle data_ready;  ///< cycle the payload is available at the vault edge
  bool row_hit;
  bool bank_conflict;
};

/// serve_next() result: the service timing plus the device-side response
/// handle of the entry the policy picked.
struct VaultServed {
  std::uint64_t token = 0;
  VaultServiceResult result{};
};

class Vault {
 public:
  Vault(const HmcConfig& cfg, std::uint32_t index)
      : cfg_(cfg),
        index_(index),
        banks_(cfg.banks_per_vault, Bank(cfg)),
        scheduler_(make_vault_scheduler(cfg)) {}

  /// FCFS pass-through: admit the request and serve it immediately through
  /// the queue + policy pick. Must be called in nondecreasing arrival
  /// order; computes the identical timing the historical immediate-service
  /// controller did.
  VaultServiceResult serve(const DecodedAddr& d, std::uint32_t bytes,
                           Cycle arrival);

  // --- deferred scheduling interface (FR-FCFS / batch policies) ----------

  /// Admit a request into the bounded queue. The caller must check full()
  /// first (and force a serve_next when it is).
  void enqueue(const DecodedAddr& d, std::uint32_t bytes, Cycle arrival,
               std::uint64_t token);

  /// Earliest cycle a service decision can be made: the controller pipeline
  /// free AND at least one queued request arrived. Queue must be nonempty.
  [[nodiscard]] Cycle next_ready() const;

  /// Pick (policy) and serve one queued entry at decision cycle @p now.
  /// Queue must be nonempty; @p now must be >= next_ready() for natural
  /// drains (forced overflow serves may pass next_ready() itself).
  VaultServed serve_next(Cycle now);

  [[nodiscard]] bool queue_empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return queue_.size() >= cfg_.vault_queue_depth;
  }
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return queue_.size();
  }

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return served_;
  }
  [[nodiscard]] std::uint64_t bank_conflicts() const noexcept;
  [[nodiscard]] std::uint64_t row_activations() const noexcept;
  [[nodiscard]] std::uint64_t row_hits() const noexcept;
  /// Picks that targeted an open row (policy reordering payoff).
  [[nodiscard]] std::uint64_t sched_row_hit_picks() const noexcept {
    return sched_row_hits_;
  }
  /// Serves forced by the FR-FCFS starvation cap.
  [[nodiscard]] std::uint64_t sched_starved_serves() const noexcept {
    return sched_starved_;
  }

  /// Attach a chrome-trace writer (nullptr detaches). While attached, every
  /// bank access emits a row-buffer state-transition span (row_open /
  /// row_hit / row_conflict) on a per-bank trace track; detached, the cost
  /// is one pointer test per access.
  void set_trace(obs::TraceWriter* trace) noexcept { trace_ = trace; }

 private:
  /// Occupy the controller pipeline and dispatch @p r to its bank; the one
  /// place service timing is computed, shared by both drain paths.
  VaultServiceResult serve_entry(const VaultRequest& r);

  HmcConfig cfg_;  // by value: see Bank
  std::uint32_t index_;
  std::vector<Bank> banks_;
  std::unique_ptr<VaultScheduler> scheduler_;
  std::vector<VaultRequest> queue_;
  std::uint64_t next_order_ = 0;
  Cycle ctrl_free_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t sched_row_hits_ = 0;
  std::uint64_t sched_starved_ = 0;
  obs::TraceWriter* trace_ = nullptr;
};

}  // namespace hmcc::hmc
