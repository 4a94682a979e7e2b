#include "hmc/vault.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace_writer.hpp"

namespace hmcc::hmc {

VaultServiceResult Vault::serve_entry(const VaultRequest& r) {
  const Cycle start = std::max(r.arrival, ctrl_free_);
  ctrl_free_ = start + cfg_.vault_ctrl_latency;
  const Cycle issue = ctrl_free_;
  const BankAccessResult b = banks_[r.d.bank].access(r.d.row, r.bytes, issue);
  ++served_;
  if (trace_ != nullptr) {
    // Row-buffer state transition as a span on a per-bank track: the name
    // says what the access did to the row (opened it, hit it open, or had
    // to wait out a conflict/row cycle), the span covers bank busy time.
    const char* what =
        b.row_hit ? "row_hit" : (b.conflict ? "row_conflict" : "row_open");
    trace_->complete(what, "bank",
                     static_cast<double>(b.start) * arch::kNsPerCycle,
                     static_cast<double>(b.data_ready - b.start) *
                         arch::kNsPerCycle,
                     index_ * cfg_.banks_per_vault + r.d.bank);
  }
  return VaultServiceResult{b.data_ready, b.row_hit, b.conflict};
}

VaultServiceResult Vault::serve(const DecodedAddr& d, std::uint32_t bytes,
                                Cycle arrival) {
  assert(d.vault == index_);
  assert(d.bank < banks_.size());
  assert(queue_.empty() &&
         "the pass-through path never coexists with deferred entries");
  // Push, pick, pop: the request takes the same queue + policy path a
  // deferred policy drains through, just with a zero-length stay.
  queue_.push_back(VaultRequest{d, bytes, arrival, next_order_++, 0, 0});
  const BankView view{&banks_, arrival};
  const SchedPick p = scheduler_->pick(queue_, view);
  const VaultRequest r = queue_[p.index];
  queue_.clear();
  if (p.row_hit) ++sched_row_hits_;
  if (p.starved) ++sched_starved_;
  return serve_entry(r);
}

void Vault::enqueue(const DecodedAddr& d, std::uint32_t bytes, Cycle arrival,
                    std::uint64_t token) {
  assert(d.vault == index_);
  assert(d.bank < banks_.size());
  assert(!full() && "caller must force a serve before admitting past depth");
  queue_.push_back(VaultRequest{d, bytes, arrival, next_order_++, token, 0});
}

Cycle Vault::next_ready() const {
  assert(!queue_.empty());
  Cycle earliest = queue_.front().arrival;
  for (const VaultRequest& r : queue_) {
    earliest = std::min(earliest, r.arrival);
  }
  return std::max(ctrl_free_, earliest);
}

VaultServed Vault::serve_next(Cycle now) {
  assert(!queue_.empty());
  const BankView view{&banks_, now};
  const SchedPick p = scheduler_->pick(queue_, view);
  const VaultRequest r = queue_[p.index];
  // Swap-pop: the queue is unordered by construction (schedulers scan for
  // the minimum order), so removal is O(1).
  queue_[p.index] = queue_.back();
  queue_.pop_back();
  if (p.row_hit) ++sched_row_hits_;
  if (p.starved) ++sched_starved_;
  return VaultServed{r.token, serve_entry(r)};
}

std::uint64_t Vault::bank_conflicts() const noexcept {
  std::uint64_t total = 0;
  for (const Bank& b : banks_) total += b.conflicts();
  return total;
}

std::uint64_t Vault::row_activations() const noexcept {
  std::uint64_t total = 0;
  for (const Bank& b : banks_) total += b.activations();
  return total;
}

std::uint64_t Vault::row_hits() const noexcept {
  std::uint64_t total = 0;
  for (const Bank& b : banks_) total += b.row_hits();
  return total;
}

}  // namespace hmcc::hmc
