// Pluggable per-vault request schedulers.
//
// Each vault owns a bounded queue of VaultRequest entries; a VaultScheduler
// decides which queued entry the controller serves next. The policy only
// *picks* — all timing (controller pipeline, bank state machine) stays in
// Vault/Bank, so every policy sees the same cost model and the stats stay
// comparable across policies.
//
// Policies:
//  - FCFS     picks the oldest entry unconditionally. The vault's serve()
//             pass-through path uses it for immediate in-order service, so
//             the default configuration is byte-identical to the historical
//             queue-less controller.
//  - FR-FCFS  among entries that have arrived by the decision cycle, prefer
//             a row-buffer hit on a ready bank, then any row hit, then any
//             ready bank, then the oldest. Every time the oldest arrived
//             entry is bypassed its starve counter grows; at the cap it is
//             served next regardless (no unbounded starvation).
//  - Batch    admission batches (PAR-BS-style): the current batch — every
//             entry admitted before the batch boundary — is fully served,
//             row-hit-first inside the batch, before younger entries are
//             considered. Bounds reordering unfairness structurally.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "hmc/address_map.hpp"
#include "hmc/config.hpp"

namespace hmcc::hmc {

class Bank;

/// One queued vault request. `token` is an opaque device-side handle
/// (response context); the vault and scheduler never interpret it.
struct VaultRequest {
  DecodedAddr d{};
  std::uint32_t bytes = 0;
  Cycle arrival = 0;        ///< cycle the request reaches the vault
  std::uint64_t order = 0;  ///< per-vault admission sequence number
  std::uint64_t token = 0;  ///< device-side response-context handle
  std::uint32_t bypassed = 0;  ///< times a younger entry was picked first
};

/// What the scheduler may inspect when picking: the owning vault's banks
/// (row-buffer and busy state) and the decision cycle.
struct BankView {
  const std::vector<Bank>* banks = nullptr;
  Cycle now = 0;  ///< decision cycle

  [[nodiscard]] bool row_hit(const VaultRequest& r) const;
  [[nodiscard]] bool bank_ready(const VaultRequest& r) const;
};

/// Why the scheduler picked the entry it picked (stats attribution).
struct SchedPick {
  std::size_t index = 0;  ///< index into the queue vector
  bool row_hit = false;   ///< picked because the row buffer matches
  bool starved = false;   ///< forced by the starvation cap
};

class VaultScheduler {
 public:
  virtual ~VaultScheduler() = default;

  /// Pick the queue entry to serve at decision cycle @p view.now. The queue
  /// is nonempty; entries whose arrival lies beyond now are not eligible
  /// unless nothing has arrived yet (then the earliest arrival wins, which
  /// is what a forced serve on a full queue needs). May mutate the entries'
  /// bypassed counters; must not reorder or remove entries.
  virtual SchedPick pick(std::vector<VaultRequest>& queue,
                         const BankView& view) = 0;
};

/// Factory for the policy selected by @p cfg.sched.
std::unique_ptr<VaultScheduler> make_vault_scheduler(const HmcConfig& cfg);

}  // namespace hmcc::hmc
