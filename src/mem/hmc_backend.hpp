// The default backend: a thin adapter over hmc::HmcDevice. Its submit()
// is the pre-seam System issue path moved verbatim behind the interface —
// same packet translation, same trace-span branch, same callback shapes —
// so `mem=hmc` produces byte-identical output to the pre-refactor
// simulator (CI's golden gate pins this).
#pragma once

#include "mem/backend.hpp"

namespace hmcc::mem {

class HmcBackend final : public MemoryBackend {
 public:
  HmcBackend(Kernel& kernel, const hmc::HmcConfig& cfg,
             CompleteFn on_complete);

  void submit(const coalescer::CoalescedPacket& pkt) override;
  [[nodiscard]] std::uint64_t outstanding() const noexcept override {
    return hmc_.outstanding();
  }
  void set_trace(obs::TraceWriter* trace) override;
  [[nodiscard]] hmc::HmcStats hmc_stats() const override {
    return hmc_.stats();
  }
  /// Exactly the device's schema — no extra families — so the `mem=hmc`
  /// Prometheus text matches the pre-seam baseline byte for byte.
  [[nodiscard]] desc::StatSet stat_descriptors() const override {
    return hmc_.stat_descriptors();
  }

  /// The embedded cube, exposed for the hybrid composition and tests.
  [[nodiscard]] hmc::HmcDevice& device() noexcept { return hmc_; }
  [[nodiscard]] const hmc::HmcDevice& device() const noexcept { return hmc_; }

 private:
  hmc::HmcDevice hmc_;
  CompleteFn on_complete_;
  obs::TraceWriter* trace_ = nullptr;
};

}  // namespace hmcc::mem
