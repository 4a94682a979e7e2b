#include "coalescer/coalescer.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bits.hpp"
#include "obs/trace_writer.hpp"

namespace hmcc::coalescer {

MemoryCoalescer::MemoryCoalescer(Kernel& kernel, CoalescerConfig cfg,
                                 IssueFn issue, CompleteFn complete)
    : kernel_(kernel),
      cfg_(cfg),
      issue_(std::move(issue)),
      complete_(std::move(complete)),
      sorter_(cfg.window, cfg.pipeline_shape, cfg.tau),
      dmc_(cfg),
      mshrs_(cfg),
      keys_(cfg.window),
      crq_(cfg.num_mshrs),
      crq_push_busy_(cfg.num_mshrs) {
  assert(issue_ && complete_);
  assert(cfg_.window <= (1u << kIndexBits) &&
         "a window index must fit the sort key's low bits");
  window_.reserve(cfg_.window);
  allocated_.reserve(cfg_.num_mshrs);
}

bool MemoryCoalescer::bypass_active() const noexcept {
  return cfg_.enable_bypass && crq_.empty() && crq_overflow_.empty() &&
         mshrs_.has_free_entry() && window_.empty();
}

void MemoryCoalescer::submit(CoalescerRequest req) {
  ++stats_.raw_requests;
  ++in_flight_inputs_;
  req.arrival = kernel_.now();
  req.addr = align_down(req.addr, cfg_.line_bytes);

  if (fence_pending_) {
    fence_hold_.push_back(std::move(req));
    return;
  }

  if (!cfg_.enable_dmc || bypass_active()) {
    // No window, no sorting: the miss is a line-sized packet offered to the
    // (dynamic) MSHR file directly. Without the DMC this is the
    // conventional MSHR path; with it, the §4.2 bypass taken while the
    // MSHRs have room and the CRQ is empty.
    if (cfg_.enable_dmc) ++stats_.bypassed;
    CoalescedPacket pkt{};
    pkt.addr = req.addr;
    pkt.bytes = cfg_.line_bytes;
    pkt.type = req.type;
    pkt.ready_at = kernel_.now();
    pkt.constituents.push_back(std::move(req));
    enqueue_packet(std::move(pkt));
    drain_crq();
    return;
  }

  window_.push_back(std::move(req));
  if (window_.size() >= cfg_.window) {
    flush_window();
  } else {
    arm_timeout();
  }
}

void MemoryCoalescer::arm_timeout() {
  if (timeout_armed_) return;
  timeout_armed_ = true;
  const std::uint64_t gen = ++timeout_gen_;
  kernel_.schedule(cfg_.timeout, [this, gen] {
    if (gen != timeout_gen_) return;  // superseded by a flush or re-arm
    timeout_armed_ = false;
    if (!window_.empty()) {
      ++stats_.timeout_flushes;
      flush_window();
    }
  });
}

void MemoryCoalescer::flush_window() {
  assert(!window_.empty());
  ++timeout_gen_;  // cancel any pending timeout event
  timeout_armed_ = false;
  ++stats_.batches;

  // Build the padded key window (§3.4: padding sorts to the tail) and run it
  // through the pipelined network, which both times the sort and orders the
  // batch. Each key is the request's 54-bit sort key without the line
  // offset (the address is line-aligned, so nothing is lost), shifted up to
  // carry the window index in its low bits: valid and type stay the top
  // bits and every key is unique, so the network's output order is valid,
  // type, line, then arrival.
  const unsigned line_bits = log2_floor(cfg_.line_bytes);
  const auto count = static_cast<std::uint32_t>(window_.size());
  std::fill(keys_.begin(), keys_.end(), ~std::uint64_t{0});
  for (std::uint32_t i = 0; i < count; ++i) {
    keys_[i] = (window_[i].sort_key() >> line_bits) << kIndexBits | i;
  }
  const Cycle sorted_at = sorter_.process(keys_, count, kernel_.now());
  assert(std::is_sorted(keys_.begin(), keys_.begin() + count) &&
         "the network must order the window");

  std::vector<CoalescerRequest> batch;
  if (!spare_batches_.empty()) {
    batch = std::move(spare_batches_.back());
    spare_batches_.pop_back();
  } else {
    batch.reserve(cfg_.window);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.push_back(window_[keys_[i] & low_mask(kIndexBits)]);
  }
  window_.clear();

  kernel_.schedule_at(sorted_at, [this, batch = std::move(batch)]() mutable {
    const Cycle start = kernel_.now();
    DmcResult res = dmc_.coalesce(batch, start);
    batch.clear();
    spare_batches_.push_back(std::move(batch));
    const Cycle busy = res.finished_at - start;
    stats_.dmc_latency.add(static_cast<double>(busy));
    if (trace_ != nullptr) {
      trace_->complete("dmc_batch", "coalescer",
                       static_cast<double>(start) * arch::kNsPerCycle,
                       static_cast<double>(busy) * arch::kNsPerCycle);
    }
    kernel_.schedule_at(
        res.finished_at,
        [this, packets = std::move(res.packets), busy]() mutable {
          dmc_busy_total_ += busy;
          for (CoalescedPacket& pkt : packets) enqueue_packet(std::move(pkt));
          drain_crq();
        });
  });
}

void MemoryCoalescer::enqueue_packet(CoalescedPacket pkt) {
  ++stats_.packets_to_crq;
  // Fig 13 accounting: DMC busy cycles spent producing CRQ-capacity
  // consecutive packets (idle arrival gaps excluded — the paper measures
  // how fast the unit can refill the CRQ, which must hide under the
  // memory access latency).
  if (crq_push_busy_.full()) {
    stats_.crq_fill_time.add(
        static_cast<double>(dmc_busy_total_ - crq_push_busy_.pop()));
  }
  crq_push_busy_.push(dmc_busy_total_);
  for (const CoalescerRequest& r : pkt.constituents) {
    stats_.front_latency.add(static_cast<double>(kernel_.now() - r.arrival));
  }

  if (crq_.full() || !crq_overflow_.empty()) {
    crq_overflow_.push_back(std::move(pkt));
  } else {
    crq_.push(std::move(pkt));
  }
}

void MemoryCoalescer::drain_crq() {
  // Refill the CRQ from the elastic overflow buffer first (FIFO order).
  auto refill = [this] {
    while (!crq_overflow_.empty() && !crq_.full()) {
      crq_.push(std::move(crq_overflow_.front()));
      crq_overflow_.pop_front();
    }
  };
  refill();
  auto gained_coverage = [this](const CoalescedPacket& pkt) {
    bool gained = false;
    for (const Allocation& a : allocated_) {
      gained |= (a.type == pkt.type) & (a.base < pkt.end()) &
                (pkt.addr < a.end);
    }
    return gained;
  };

  while (!crq_.empty()) {
    // A head rejected at the file's current version would be rejected
    // again: skip the call, but count the reject it would have counted.
    if (head_rejected_at_ == mshrs_.version()) {
      mshrs_.count_skipped_reject();
    } else {
      const DynamicMshrFile::InsertResult res =
          mshrs_.try_insert(crq_.front());
      if (res.accepted) {
        note_issued_or_merged(crq_.front(), kernel_.now());
        crq_.pop();
        head_rejected_at_ = 0;
        if (crq_checked_ > 0) --crq_checked_;  // the new head was checked
        refill();
        for (const CoalescedPacket& pkt : res.to_issue) {
          allocated_.push_back({pkt.addr, pkt.end(), pkt.type});
          issue_packet(pkt);
        }
        continue;
      }
      head_rejected_at_ = mshrs_.version();
    }
    // Head blocked on a free entry. §4.2: the rest of the CRQ still gets
    // compared against all MSHRs and fully-covered packets merge in place.
    // A packet whose last check failed can only merge now if an entry of
    // its type allocated since then overlaps it (see try_merge_only), so
    // only then is it checked again. The checked packets are the first
    // crq_checked_ behind the head; with no allocation, the pass starts
    // right after them.
    std::size_t checked_end = 1 + crq_checked_;
    for (std::size_t i = allocated_.empty() ? checked_end : 1;
         i < crq_.size();) {
      CoalescedPacket& pkt = crq_.at(i);
      if (i < checked_end && !gained_coverage(pkt)) {
        ++i;
      } else if (mshrs_.try_merge_only(pkt)) {
        ++stats_.crq_merges;
        note_issued_or_merged(pkt, kernel_.now());
        crq_.erase_at(i);
        if (i < checked_end) --checked_end;
      } else {
        ++i;
      }
    }
    crq_checked_ = crq_.size() - 1;
    break;  // wait for an on_memory_response() to free an entry
  }
  // A drain ends with a merge pass or an empty CRQ, so a packet's last
  // check (or skip) was in the previous drain; the allocations since then
  // are the ones the next drain records.
  allocated_.clear();
  if (trace_ != nullptr) {
    trace_->counter("crq_occupancy",
                    static_cast<double>(kernel_.now()) * arch::kNsPerCycle,
                    static_cast<double>(crq_.size() + crq_overflow_.size()));
  }
  maybe_release_fence();
}

void MemoryCoalescer::issue_packet(const CoalescedPacket& pkt) {
  ++stats_.memory_requests;
  if (pkt.bytes <= cfg_.line_bytes) {
    ++stats_.size_64;
  } else if (pkt.bytes <= 2 * cfg_.line_bytes) {
    ++stats_.size_128;
  } else {
    ++stats_.size_256;
  }
  issue_(pkt);
}

void MemoryCoalescer::note_issued_or_merged(const CoalescedPacket& pkt,
                                            Cycle when) {
  for (const CoalescerRequest& r : pkt.constituents) {
    stats_.request_latency.add(static_cast<double>(when - r.arrival));
    assert(in_flight_inputs_ > 0);
    --in_flight_inputs_;
  }
}

void MemoryCoalescer::submit_fence() {
  ++stats_.fences;
  if (cfg_.enable_dmc && !window_.empty()) {
    flush_window();
  }
  if (cfg_.enable_dmc) {
    sorter_.process_fence(kernel_.now());
  }
  fence_pending_ = true;
  maybe_release_fence();
}

void MemoryCoalescer::maybe_release_fence() {
  if (!fence_pending_) return;
  // All pre-fence requests are committed once nothing is in flight except
  // the requests held behind the fence.
  if (in_flight_inputs_ != fence_hold_.size()) return;
  if (mshrs_.in_use() != 0 || !crq_.empty() || !crq_overflow_.empty() ||
      !window_.empty()) {
    return;
  }
  fence_pending_ = false;
  std::deque<CoalescerRequest> held = std::move(fence_hold_);
  fence_hold_.clear();
  for (CoalescerRequest& r : held) {
    // Replay without re-counting: submit() already accounted these.
    --stats_.raw_requests;
    --in_flight_inputs_;
    submit(std::move(r));
  }
}

void MemoryCoalescer::on_memory_response(ReqId id) {
  auto fill = mshrs_.on_fill(id);
  assert(fill.has_value() && "response for an unknown packet id");
  for (const DynMshrTarget& t : fill->targets) {
    complete_(t.line_addr, t.token);
  }
  drain_crq();
}

bool MemoryCoalescer::idle() const noexcept {
  return window_.empty() && crq_.empty() && crq_overflow_.empty() &&
         mshrs_.in_use() == 0 && !fence_pending_ && in_flight_inputs_ == 0;
}

desc::StatSet MemoryCoalescer::stat_descriptors() const {
  const CoalescerStats& s = stats_;
  desc::StatSet set;
  set.counter("hmcc_coalescer_raw_requests_total",
              "Raw LLC misses / write-backs submitted to the coalescer",
              [&s] { return s.raw_requests; })
      .counter("hmcc_coalescer_memory_requests_total",
               "Coalesced packets actually issued to the HMC device",
               [&s] { return s.memory_requests; })
      .counter("hmcc_coalescer_batches_total",
               "Request-window batches flushed into the sorting pipeline",
               [&s] { return s.batches; })
      .counter("hmcc_coalescer_timeout_flushes_total",
               "Window batches flushed by the timeout rather than filling",
               [&s] { return s.timeout_flushes; })
      .counter("hmcc_coalescer_bypassed_total",
               "Raw requests that took the stage-select bypass (sec. 4.2)",
               [&s] { return s.bypassed; })
      .counter("hmcc_coalescer_crq_merges_total",
               "Packets merged in place while waiting in the CRQ",
               [&s] { return s.crq_merges; })
      .counter("hmcc_coalescer_packets_to_crq_total",
               "Packets pushed into the coalesced-request queue",
               [&s] { return s.packets_to_crq; })
      .counter("hmcc_coalescer_fences_total", "Memory fences drained",
               [&s] { return s.fences; })
      .gauge("hmcc_coalescer_efficiency",
             "Fraction of raw requests eliminated before the HMC (Fig 8)",
             [&s] { return s.coalescing_efficiency(); })
      // The paper's packet-size distribution (Fig 9): bucket upper bounds
      // are the three legal HMC payload sizes.
      .histogram("hmcc_coalescer_packet_bytes",
                 "Issued packet payload size in bytes", {64.0, 128.0, 256.0},
                 [&s] {
                   return desc::HistSample{{64.0, s.size_64},
                                           {128.0, s.size_128},
                                           {256.0, s.size_256}};
                 })
      .gauge("hmcc_coalescer_dmc_latency_cycles_avg",
             "Mean cycles a batch spends in the DMC unit (Fig 12)",
             [&s] { return s.dmc_latency.mean(); })
      .gauge("hmcc_coalescer_crq_fill_cycles_avg",
             "Mean cycles to produce CRQ-capacity packets (Fig 13)",
             [&s] { return s.crq_fill_time.mean(); })
      .gauge("hmcc_coalescer_front_latency_cycles_avg",
             "Mean submit-to-CRQ latency in cycles (Fig 14)",
             [&s] { return s.front_latency.mean(); })
      .gauge("hmcc_coalescer_request_latency_cycles_avg",
             "Mean submit-to-issue/merge latency in cycles",
             [&s] { return s.request_latency.mean(); })
      .sampled_gauge(
          "hmcc_coalescer_crq_occupancy",
          "Packets in the CRQ plus its elastic overflow buffer",
          {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
          [this] {
            return static_cast<double>(crq_.size() + crq_overflow_.size());
          });
  set.extend(mshrs_.stat_descriptors());
  return set;
}

}  // namespace hmcc::coalescer
