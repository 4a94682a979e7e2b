#include "hmc/scheduler.hpp"

#include <cassert>
#include <limits>

#include "hmc/bank.hpp"

namespace hmcc::hmc {

bool BankView::row_hit(const VaultRequest& r) const {
  return (*banks)[r.d.bank].would_hit(r.d.row);
}

bool BankView::bank_ready(const VaultRequest& r) const {
  return (*banks)[r.d.bank].busy_until() <= now;
}

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Index of the oldest entry (minimum admission order); the queue vector is
/// not kept sorted (serve_next swap-pops), so scan.
std::size_t oldest_of(const std::vector<VaultRequest>& queue) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue.size(); ++i) {
    if (queue[i].order < queue[best].order) best = i;
  }
  return best;
}

class FcfsScheduler final : public VaultScheduler {
 public:
  SchedPick pick(std::vector<VaultRequest>& queue,
                 const BankView& view) override {
    SchedPick p;
    p.index = oldest_of(queue);
    p.row_hit = view.row_hit(queue[p.index]);
    return p;
  }
};

/// Shared FR-FCFS ranking over a candidate subset: row hit on a ready bank,
/// then row hit, then ready bank, then oldest; ties break to the oldest.
/// @p eligible(i) gates which entries compete. Returns kNone when no entry
/// is eligible.
template <typename Eligible>
std::size_t first_ready_pick(const std::vector<VaultRequest>& queue,
                             const BankView& view, Eligible eligible) {
  std::size_t best = kNone;
  int best_rank = -1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (!eligible(i)) continue;
    const bool hit = view.row_hit(queue[i]);
    const bool ready = view.bank_ready(queue[i]);
    const int rank = (hit ? 2 : 0) + (ready ? 1 : 0);
    if (best == kNone || rank > best_rank ||
        (rank == best_rank && queue[i].order < queue[best].order)) {
      best = i;
      best_rank = rank;
    }
  }
  return best;
}

class FrfcfsScheduler final : public VaultScheduler {
 public:
  explicit FrfcfsScheduler(std::uint32_t starve_cap)
      : starve_cap_(starve_cap) {}

  SchedPick pick(std::vector<VaultRequest>& queue,
                 const BankView& view) override {
    const std::size_t oldest = oldest_of(queue);
    auto arrived = [&](std::size_t i) {
      return queue[i].arrival <= view.now;
    };
    SchedPick p;
    // Starvation override: once the oldest arrived entry has been bypassed
    // starve_cap_ times it goes next, whatever the row buffers say.
    if (arrived(oldest) && queue[oldest].bypassed >= starve_cap_) {
      p.index = oldest;
      p.row_hit = view.row_hit(queue[oldest]);
      p.starved = true;
      return p;
    }
    std::size_t best = first_ready_pick(queue, view, arrived);
    if (best == kNone) best = oldest;  // forced pick: nothing has arrived yet
    p.index = best;
    p.row_hit = view.row_hit(queue[best]);
    if (best != oldest && arrived(oldest)) ++queue[oldest].bypassed;
    return p;
  }

 private:
  std::uint32_t starve_cap_;
};

class BatchScheduler final : public VaultScheduler {
 public:
  SchedPick pick(std::vector<VaultRequest>& queue,
                 const BankView& view) override {
    // Batch boundary: when the current batch has drained, everything queued
    // right now becomes the next batch. Entries admitted later must wait
    // for it — structural fairness instead of per-entry counters.
    bool have_current = false;
    for (const VaultRequest& r : queue) {
      if (r.order < batch_end_) {
        have_current = true;
        break;
      }
    }
    if (!have_current) {
      std::uint64_t max_order = 0;
      for (const VaultRequest& r : queue) {
        if (r.order >= max_order) max_order = r.order + 1;
      }
      batch_end_ = max_order;
    }
    auto in_batch = [&](std::size_t i) {
      return queue[i].order < batch_end_ && queue[i].arrival <= view.now;
    };
    std::size_t best = first_ready_pick(queue, view, in_batch);
    if (best == kNone) {
      // Nothing in the batch has arrived: fall back to the oldest batch
      // member (forced pick on a full queue needs a decision).
      best = kNone;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].order >= batch_end_) continue;
        if (best == kNone || queue[i].order < queue[best].order) best = i;
      }
      if (best == kNone) best = oldest_of(queue);
    }
    SchedPick p;
    p.index = best;
    p.row_hit = view.row_hit(queue[best]);
    return p;
  }

 private:
  std::uint64_t batch_end_ = 0;  ///< orders below this form the current batch
};

}  // namespace

std::unique_ptr<VaultScheduler> make_vault_scheduler(const HmcConfig& cfg) {
  switch (cfg.sched) {
    case SchedPolicy::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedPolicy::kFrfcfs:
      return std::make_unique<FrfcfsScheduler>(cfg.sched_starve_cap);
    case SchedPolicy::kBatch: return std::make_unique<BatchScheduler>();
  }
  assert(false && "unknown scheduling policy");
  return std::make_unique<FcfsScheduler>();
}

}  // namespace hmcc::hmc
