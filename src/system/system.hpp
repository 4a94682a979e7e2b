// Full-system simulator: trace-driven cores -> L1/L2 -> shared LLC ->
// memory coalescer (or baseline MSHR path) -> pluggable memory backend
// (mem=hmc: the paper's HMC device; mem=hybrid: the cube in front of a flat
// capacity tier, behind a hot-page tag table and migration engine).
//
// This is the equivalent of the paper's Spike + microcode + runtime stack:
// cores replay per-thread memory traces with a bounded number of
// outstanding LLC misses; everything below the LLC is simulated with the
// event kernel at cycle granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "coalescer/coalescer.hpp"
#include "common/descriptor.hpp"
#include "hmc/device.hpp"
#include "mem/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"
#include "sim/kernel.hpp"
#include "system/config.hpp"
#include "trace/trace.hpp"

namespace hmcc::system {

/// Everything a figure harness needs from one run.
struct SystemReport {
  Cycle runtime = 0;  ///< cycle of the last completed access
  /// True iff every structure drained: all cores retired their traces, the
  /// coalescer is empty, and the HMC has no outstanding transactions. Any
  /// run that ends un-drained indicates a lost request (checked by tests).
  bool drained = false;
  std::uint64_t cpu_accesses = 0;
  std::uint64_t llc_misses = 0;       ///< demand misses sent to the coalescer
  std::uint64_t writebacks = 0;       ///< dirty evictions sent to memory
  std::uint64_t memory_requests = 0;  ///< HMC transactions actually issued
  /// Sum of the CPU-requested bytes of all LLC misses (Fig 9 numerator).
  std::uint64_t miss_payload_bytes = 0;
  coalescer::CoalescerStats coalescer;
  hmc::HmcStats hmc;
  /// Tier split / migration accounting; all-zero under mem=hmc.
  mem::MemTierStats mem_tier;
  cache::CacheStats llc_cache;

  /// Fraction of post-LLC requests eliminated before reaching the HMC.
  [[nodiscard]] double coalescing_efficiency() const noexcept {
    const std::uint64_t raw = llc_misses + writebacks;
    return raw ? 1.0 - static_cast<double>(memory_requests) /
                           static_cast<double>(raw)
               : 0.0;
  }
  /// Equation (1) with the CPU's actual payload as "requested data".
  [[nodiscard]] double payload_bandwidth_efficiency() const noexcept {
    return hmc.transferred_bytes
               ? static_cast<double>(miss_payload_bytes) /
                     static_cast<double>(hmc.transferred_bytes)
               : 0.0;
  }
  [[nodiscard]] double runtime_seconds() const noexcept {
    return static_cast<double>(runtime) * arch::kNsPerCycle * 1e-9;
  }
};

class System {
 public:
  explicit System(SystemConfig cfg);

  /// Observe every request entering the coalescer (used by the Fig 9/10
  /// offline payload-granularity analysis).
  using MissHook =
      std::function<void(const coalescer::CoalescerRequest&, std::uint32_t core)>;
  void set_miss_hook(MissHook hook) { miss_hook_ = std::move(hook); }

  /// Replay @p mtrace to completion and return the report. One-shot: build
  /// a fresh System for every run.
  /// @throws std::runtime_error "<path>: <reason>" when the chrome trace
  /// (cfg.obs.trace_json) cannot be written.
  SystemReport run(const trace::MultiTrace& mtrace);

  [[nodiscard]] Kernel& kernel() noexcept { return kernel_; }

  /// Per-System metrics registry: non-null iff cfg.obs.metrics. run()
  /// publishes the final sim counters into it; benches snapshot it with
  /// render_prometheus() or counter_value().
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_.get();
  }
  /// Trace collector: non-null iff cfg.obs.trace_json is non-empty. run()
  /// writes it to cfg.obs.trace_json when the simulation drains.
  [[nodiscard]] obs::TraceWriter* trace() const noexcept {
    return trace_.get();
  }
  /// The full metric schema of the simulated system: every component's
  /// stat descriptors (coalescer, dynamic MSHRs, HMC wire + per-vault,
  /// cache levels) plus the system-level accounting. One declaration feeds
  /// end-of-run publication AND mid-run sampling (obs.sample_interval).
  /// Sample functions read live state: the System must outlive the set.
  [[nodiscard]] desc::StatSet stat_descriptors() const;

  /// Publish every sim layer's counters (coalescer, dynamic MSHRs, HMC
  /// wire + per-vault, cache levels, system accounting) into @p reg.
  /// Callable any time; normally used on an external registry after run().
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  struct CoreState {
    const std::vector<trace::TraceRecord>* stream = nullptr;
    std::size_t pc = 0;
    std::uint32_t sub_offset = 0;  ///< byte progress inside a split record
    std::uint32_t outstanding = 0;
    bool waiting_for_slot = false;
    bool issue_scheduled = false;
    bool at_barrier = false;
    bool done = false;
  };
  struct Pending {
    std::uint32_t core = 0;
    bool is_store_miss = false;
    bool in_use = false;
  };

  void schedule_issue(std::uint32_t core, Cycle delay);
  void step_core(std::uint32_t core);
  void submit_miss(std::uint32_t core, Addr addr, std::uint32_t size,
                   ReqType type);
  void submit_writeback(Addr line_addr);
  void on_complete(Addr line_addr, std::uint64_t token);
  void maybe_release_barrier();
  std::uint64_t alloc_token(std::uint32_t core, bool is_store);
  [[nodiscard]] bool sim_drained() const;
  void arm_sampler();

  SystemConfig cfg_;
  Kernel kernel_;
  cache::Hierarchy hierarchy_;
  std::unique_ptr<mem::MemoryBackend> mem_;
  std::unique_ptr<coalescer::MemoryCoalescer> coalescer_;
  std::vector<CoreState> cores_;
  std::vector<Pending> pending_;
  std::vector<std::uint64_t> free_tokens_;
  MissHook miss_hook_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;  ///< cfg.obs.metrics only
  std::unique_ptr<obs::TraceWriter> trace_;        ///< cfg.obs.trace_json only
  /// Descriptors driven by the mid-run sampler; built lazily on the first
  /// run() with metrics + sample_interval on.
  std::unique_ptr<desc::StatSet> sample_set_;

  // Run-wide accounting.
  Cycle last_activity_ = 0;
  std::uint64_t cpu_accesses_ = 0;
  std::uint64_t llc_misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t miss_payload_bytes_ = 0;
  std::uint32_t cores_running_ = 0;
};

}  // namespace hmcc::system
