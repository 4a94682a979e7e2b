#include "system/system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/file_io.hpp"

namespace hmcc::system {

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg)),
      kernel_(Kernel::ring_size_for(worst_case_event_delay(cfg_))),
      hierarchy_(cfg_.hierarchy) {
  apply_mode(cfg_, cfg_.mode);  // keep flags consistent with the mode
  mem_ = mem::make_backend(
      kernel_, cfg_.hmc, cfg_.mem,
      [this](ReqId id) { coalescer_->on_memory_response(id); });
  coalescer_ = std::make_unique<coalescer::MemoryCoalescer>(
      kernel_, cfg_.coalescer,
      [this](const coalescer::CoalescedPacket& pkt) { mem_->submit(pkt); },
      [this](Addr line, std::uint64_t token) { on_complete(line, token); });
  if (cfg_.obs.metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  if (!cfg_.obs.trace_json.empty()) {
    trace_ = std::make_unique<obs::TraceWriter>(cfg_.obs.trace_max_events);
    coalescer_->set_trace(trace_.get());
    mem_->set_trace(trace_.get());
  }
}

std::uint64_t System::alloc_token(std::uint32_t core, bool is_store) {
  std::uint64_t idx;
  if (!free_tokens_.empty()) {
    idx = free_tokens_.back();
    free_tokens_.pop_back();
  } else {
    idx = pending_.size();
    pending_.emplace_back();
  }
  Pending& p = pending_[idx];
  p.core = core;
  p.is_store_miss = is_store;
  p.in_use = true;
  return idx + 1;  // token 0 is the write-back sentinel
}

void System::schedule_issue(std::uint32_t core, Cycle delay) {
  CoreState& cs = cores_[core];
  if (cs.issue_scheduled || cs.done) return;
  cs.issue_scheduled = true;
  kernel_.schedule(delay, [this, core] {
    cores_[core].issue_scheduled = false;
    step_core(core);
  });
}

void System::submit_writeback(Addr line_addr) {
  ++writebacks_;
  coalescer::CoalescerRequest r{};
  r.addr = line_addr;
  r.payload_bytes = cfg_.coalescer.line_bytes;
  r.type = ReqType::kStore;
  r.token = 0;  // fire-and-forget
  if (miss_hook_) miss_hook_(r, ~0u);
  coalescer_->submit(r);
}

void System::submit_miss(std::uint32_t core, Addr addr, std::uint32_t size,
                         ReqType type) {
  ++llc_misses_;
  miss_payload_bytes_ += size;
  coalescer::CoalescerRequest r{};
  r.addr = addr;
  r.payload_bytes = size;
  r.type = type;
  r.token = alloc_token(core, type == ReqType::kStore);
  if (miss_hook_) miss_hook_(r, core);
  coalescer_->submit(r);
}

void System::maybe_release_barrier() {
  std::uint32_t active = 0;
  std::uint32_t waiting = 0;
  for (const CoreState& cs : cores_) {
    if (cs.done) continue;
    ++active;
    if (cs.at_barrier) ++waiting;
  }
  if (active == 0 || waiting < active) return;
  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].at_barrier) {
      cores_[c].at_barrier = false;
      schedule_issue(c, 1);
    }
  }
}

void System::step_core(std::uint32_t core) {
  CoreState& cs = cores_[core];
  if (cs.done) return;
  if (cs.pc >= cs.stream->size()) {
    if (cs.outstanding == 0) {
      cs.done = true;
      --cores_running_;
      last_activity_ = std::max(last_activity_, kernel_.now());
      maybe_release_barrier();  // finished cores no longer gate barriers
    }
    return;  // otherwise a completion will re-poke us
  }

  // A full miss-slot file stalls the front end; a completion re-pokes us.
  // (Checked before the cache access so a stalled access is replayed with
  // no double side effects.)
  if (cs.outstanding >= cfg_.core.max_outstanding_misses) {
    cs.waiting_for_slot = true;
    return;
  }

  const trace::TraceRecord& rec = (*cs.stream)[cs.pc];
  if (rec.is_barrier()) {
    // OpenMP-style join: a thread only reaches the join after its own loads
    // returned (it consumed their values), so drain first...
    if (cs.outstanding > 0) {
      cs.waiting_for_slot = true;  // completions re-poke us
      return;
    }
    // ...then stall until every still-running core reaches its barrier.
    cs.at_barrier = true;
    ++cs.pc;
    maybe_release_barrier();
    return;
  }
  if (rec.is_fence()) {
    coalescer_->submit_fence();
    ++cs.pc;
    schedule_issue(core, cfg_.core.issue_interval);
    return;
  }
  // Past the marker dispatch above, the record MUST be a real access —
  // a marker reaching the cache/coalescer path would issue a phantom load.
  assert(rec.is_access());

  // Split accesses that straddle a cache line; process one line per step.
  const std::uint32_t line = cfg_.coalescer.line_bytes;
  const Addr addr = rec.access_addr() + cs.sub_offset;
  const std::uint32_t remaining = rec.access_size() - cs.sub_offset;
  const Addr line_end = align_down(addr, line) + line;
  const auto chunk = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(remaining, line_end - addr));

  auto result = hierarchy_.access(core, addr, rec.type);
  ++cpu_accesses_;
  for (Addr wb : result.memory_writebacks) submit_writeback(wb);
  hierarchy_.recycle(std::move(result.memory_writebacks));

  if (result.level == cache::HitLevel::kMemory) {
    ++cs.outstanding;
    submit_miss(core, addr, chunk, rec.type);
  }

  cs.sub_offset += chunk;
  if (cs.sub_offset >= rec.access_size()) {
    ++cs.pc;
    cs.sub_offset = 0;
  }
  schedule_issue(core, cfg_.core.issue_interval);
}

void System::on_complete(Addr line_addr, std::uint64_t token) {
  last_activity_ = std::max(last_activity_, kernel_.now());
  if (token == 0) return;  // write-back committed; nothing to wake
  Pending& p = pending_[token - 1];
  assert(p.in_use);
  p.in_use = false;
  const std::uint32_t core = p.core;
  free_tokens_.push_back(token - 1);

  if (auto victim = hierarchy_.fill_llc(line_addr, /*dirty=*/false)) {
    submit_writeback(*victim);
  }

  CoreState& cs = cores_[core];
  assert(cs.outstanding > 0);
  --cs.outstanding;
  if (cs.waiting_for_slot) {
    cs.waiting_for_slot = false;
    schedule_issue(core, 1);
  } else if (cs.pc >= cs.stream->size() && !cs.done) {
    schedule_issue(core, 0);  // let the core retire
  }
}

SystemReport System::run(const trace::MultiTrace& mtrace) {
  const std::uint32_t ncores = cfg_.hierarchy.num_cores;
  assert(mtrace.per_core.size() <= ncores);
  cores_.assign(ncores, CoreState{});
  cores_running_ = 0;
  for (std::uint32_t c = 0; c < ncores && c < mtrace.per_core.size(); ++c) {
    cores_[c].stream = &mtrace.per_core[c];
    if (!mtrace.per_core[c].empty()) {
      ++cores_running_;
      schedule_issue(c, 0);
    } else {
      cores_[c].done = true;
    }
  }
  for (std::uint32_t c = static_cast<std::uint32_t>(mtrace.per_core.size());
       c < ncores; ++c) {
    cores_[c].done = true;
  }

  if (metrics_ && cfg_.obs.sample_interval > 0 && cores_running_ > 0) {
    if (!sample_set_) {
      sample_set_ = std::make_unique<desc::StatSet>(stat_descriptors());
    }
    arm_sampler();
  }

  kernel_.run();

  SystemReport rep;
  rep.drained = coalescer_->idle() && mem_->outstanding() == 0;
  for (const CoreState& cs : cores_) rep.drained = rep.drained && cs.done;
  rep.runtime = last_activity_;
  rep.cpu_accesses = cpu_accesses_;
  rep.llc_misses = llc_misses_;
  rep.writebacks = writebacks_;
  rep.memory_requests = coalescer_->stats().memory_requests;
  rep.miss_payload_bytes = miss_payload_bytes_;
  rep.coalescer = coalescer_->stats();
  rep.hmc = mem_->hmc_stats();
  rep.mem_tier = mem_->tier_stats();
  rep.llc_cache = hierarchy_.llc().stats();

  if (metrics_) publish_metrics(*metrics_);
  if (trace_) {
    std::string err = write_file_atomic(cfg_.obs.trace_json, trace_->to_json());
    if (!err.empty()) throw std::runtime_error(std::move(err));
  }
  return rep;
}

bool System::sim_drained() const {
  if (cores_running_ > 0) return false;
  return coalescer_->idle() && mem_->outstanding() == 0;
}

void System::arm_sampler() {
  // One self-rescheduling read-only event: each tick samples every `sampled`
  // descriptor into the registry, then re-arms UNLESS the simulation has
  // drained — a sampler that kept rescheduling would keep the kernel alive
  // forever. Sampling never mutates simulator state, so a run's results are
  // byte-identical with the sampler on or off.
  kernel_.schedule(cfg_.obs.sample_interval, [this] {
    sample_set_->sample(*metrics_);
    if (!sim_drained()) arm_sampler();
  });
}

desc::StatSet System::stat_descriptors() const {
  desc::StatSet set;
  set.extend(coalescer_->stat_descriptors());
  set.extend(mem_->stat_descriptors());
  set.extend(hierarchy_.stat_descriptors());
  set.counter("hmcc_system_cpu_accesses_total", "CPU accesses replayed",
              [this] { return cpu_accesses_; })
      .counter("hmcc_system_llc_misses_total",
               "Demand misses sent to the coalescer",
               [this] { return llc_misses_; })
      .counter("hmcc_system_writebacks_total",
               "Dirty evictions sent to memory", [this] { return writebacks_; })
      .counter("hmcc_system_miss_payload_bytes_total",
               "CPU-requested bytes of all LLC misses",
               [this] { return miss_payload_bytes_; })
      .gauge("hmcc_system_runtime_cycles",
             "Cycle of the last completed access",
             [this] { return static_cast<double>(last_activity_); });
  return set;
}

void System::publish_metrics(obs::MetricsRegistry& reg) const {
  stat_descriptors().publish(reg);
}

}  // namespace hmcc::system
