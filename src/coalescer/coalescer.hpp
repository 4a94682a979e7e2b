// Top-level memory coalescer (the paper's Figure 3 datapath).
//
//   LLC misses / write-backs
//        |  submit()
//        v
//   [request window (n=16) + timeout]          §3.3
//        v
//   [pipelined odd-even mergesort network]     §3.3, §4.1
//        v
//   [DMC unit: first-phase coalescing]         §3.2.2, §3.5
//        v
//   [CRQ: FIFO, size == #MSHRs]                §3.2.2
//        v
//   [dynamic MSHRs: second-phase coalescing]   §3.2.3, §3.5
//        |  issue()                                -> HMC
//        ^  on_memory_response()                   <- HMC
//        |  complete(line, token) per subentry     -> LLC fill / core wakeup
//
// Also implements the §4.2 stage-select bypass (raw requests go straight to
// the MSHRs while they have room and the CRQ is empty) and §3.4 memory-fence
// draining.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "coalescer/config.hpp"
#include "coalescer/dmc_unit.hpp"
#include "coalescer/dynamic_mshr.hpp"
#include "coalescer/pipeline.hpp"
#include "coalescer/request.hpp"
#include "common/descriptor.hpp"
#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/kernel.hpp"

namespace hmcc::obs {
class TraceWriter;
}  // namespace hmcc::obs

namespace hmcc::coalescer {

struct CoalescerStats {
  std::uint64_t raw_requests = 0;
  std::uint64_t fences = 0;
  std::uint64_t batches = 0;
  std::uint64_t timeout_flushes = 0;   ///< batches flushed by window timeout
  std::uint64_t packets_to_crq = 0;
  std::uint64_t memory_requests = 0;   ///< actually issued to HMC
  std::uint64_t bypassed = 0;          ///< raw requests that skipped the pipe
  std::uint64_t crq_merges = 0;        ///< packets merged while waiting (§4.2)
  std::uint64_t size_64 = 0;
  std::uint64_t size_128 = 0;
  std::uint64_t size_256 = 0;
  Accumulator dmc_latency;      ///< per batch, cycles in the DMC unit (Fig 12)
  Accumulator crq_fill_time;    ///< cycles to accumulate CRQ-capacity packets (Fig 13)
  Accumulator request_latency;  ///< submit -> memory-issue/merge, cycles
  /// Front-end latency: submit -> packet pushed into the CRQ (window wait +
  /// sorting pipeline + DMC unit, excluding MSHR/CRQ backpressure). This is
  /// the "latency of the memory coalescer" the Fig 14 timeout sweep reports.
  Accumulator front_latency;

  /// The paper's coalescing-efficiency metric: the fraction of raw memory
  /// requests eliminated before reaching the HMC device.
  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_requests ? 1.0 - static_cast<double>(memory_requests) /
                                    static_cast<double>(raw_requests)
                        : 0.0;
  }
};

class MemoryCoalescer {
 public:
  /// Issue a coalesced packet to the memory device. pkt.id is the handle the
  /// owner must echo back via on_memory_response().
  using IssueFn = std::function<void(const CoalescedPacket& pkt)>;
  /// Per-subentry completion: the line that arrived and the token attached
  /// to the original request.
  using CompleteFn = std::function<void(Addr line_addr, std::uint64_t token)>;

  MemoryCoalescer(Kernel& kernel, CoalescerConfig cfg, IssueFn issue,
                  CompleteFn complete);

  /// Submit an LLC miss / write-back. The coalescer never rejects input
  /// (the window, sorter and CRQ provide elastic buffering; real
  /// backpressure is exerted upstream by the owner's MLP limits).
  void submit(CoalescerRequest req);

  /// Submit a memory fence: flushes the window through the sorter and holds
  /// all later input until every earlier request has committed (§3.4).
  void submit_fence();

  /// Completion for packet @p id previously passed to IssueFn.
  void on_memory_response(ReqId id);

  /// Attach a chrome-trace writer (nullptr detaches). The coalescer emits
  /// "dmc_batch" spans and "crq_occupancy" counter events. When no writer is
  /// attached, instrumentation reduces to one pointer test per site.
  void set_trace(obs::TraceWriter* trace) noexcept { trace_ = trace; }

  [[nodiscard]] const CoalescerStats& stats() const noexcept { return stats_; }

  /// The coalescer's metric schema (`hmcc_coalescer_*`: paper counters,
  /// the packet-size histogram, the Fig 12-14 latency means, and a sampled
  /// CRQ-occupancy gauge), plus the dynamic-MSHR file's own descriptors.
  /// Sample functions read live state: the coalescer must outlive the set.
  [[nodiscard]] desc::StatSet stat_descriptors() const;
  [[nodiscard]] const PipelinedSorter& sorter() const noexcept {
    return sorter_;
  }
  [[nodiscard]] const DynamicMshrFile& mshrs() const noexcept {
    return mshrs_;
  }
  /// True when every pipeline structure is empty (quiesced).
  [[nodiscard]] bool idle() const noexcept;

 private:
  void flush_window();
  void arm_timeout();
  /// Push one packet into the CRQ (or its overflow buffer); the caller
  /// drains the CRQ after its last push.
  void enqueue_packet(CoalescedPacket pkt);
  void drain_crq();
  void issue_packet(const CoalescedPacket& pkt);
  void note_issued_or_merged(const CoalescedPacket& pkt, Cycle when);
  void maybe_release_fence();
  [[nodiscard]] bool bypass_active() const noexcept;

  Kernel& kernel_;
  CoalescerConfig cfg_;
  IssueFn issue_;
  CompleteFn complete_;

  PipelinedSorter sorter_;
  DmcUnit dmc_;
  DynamicMshrFile mshrs_;

  std::vector<CoalescerRequest> window_;
  std::uint64_t timeout_gen_ = 0;   ///< invalidates stale timeout events
  bool timeout_armed_ = false;
  /// Low bits of a network key that hold the request's window index
  /// (the window knob's maximum is 1024).
  static constexpr unsigned kIndexBits = 10;
  /// The sorter's padded key window; sorted, it is the batch order.
  std::vector<std::uint64_t> keys_;
  /// Emptied batch buffers (capacity window) that flush_window() swaps in
  /// for window_; a batch comes back once the DMC unit has coalesced it.
  std::vector<std::vector<CoalescerRequest>> spare_batches_;

  RingBuffer<CoalescedPacket> crq_;
  std::deque<CoalescedPacket> crq_overflow_;  ///< packets waiting for CRQ room
  /// Packets right behind the CRQ head whose last merge check failed. They
  /// form a prefix: every merge pass leaves each waiting packet checked,
  /// and new packets join at the tail.
  std::size_t crq_checked_ = 0;
  /// mshrs_.version() when the CRQ head was last rejected, or 0 (versions
  /// start at 1) while the head has not been rejected.
  std::uint64_t head_rejected_at_ = 0;
  /// MSHR entries the running drain_crq() call has allocated. Only these
  /// can turn a waiting packet's failed merge check into a success.
  struct Allocation {
    Addr base;
    Addr end;
    ReqType type;
  };
  std::vector<Allocation> allocated_;
  /// Fig 13 fill-time tracking: cumulative DMC busy cycles at each push; a
  /// sample is the busy time spanned by CRQ-capacity consecutive pushes.
  Cycle dmc_busy_total_ = 0;
  RingBuffer<Cycle> crq_push_busy_;

  bool fence_pending_ = false;
  std::deque<CoalescerRequest> fence_hold_;

  std::uint64_t in_flight_inputs_ = 0;
  CoalescerStats stats_;
  obs::TraceWriter* trace_ = nullptr;
};

}  // namespace hmcc::coalescer
