#include "replay.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "cache/hierarchy.hpp"
#include "coalescer/coalescer.hpp"
#include "coalescer/dmc_unit.hpp"
#include "coalescer/dynamic_mshr.hpp"
#include "coalescer/pipeline.hpp"
#include "common/bits.hpp"
#include "mem/backend.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

namespace coal = hmcc::coalescer;
using hmcc::Cycle;
using hmcc::Kernel;

namespace {

/// Submits timestamped items at their cycles: one self-rescheduling event
/// per distinct cycle instead of one pre-scheduled event per item.
template <typename Item, typename Submit>
class Feeder {
 public:
  Feeder(Kernel& kernel, const std::vector<Item>& items, Submit submit)
      : kernel_(kernel), items_(items), submit_(std::move(submit)) {}
  Feeder(const Feeder&) = delete;
  Feeder& operator=(const Feeder&) = delete;

  void start() {
    if (items_.empty()) return;
    kernel_.schedule_at(items_.front().at, [this] { step(); });
  }

 private:
  void step() {
    const Cycle now = kernel_.now();
    while (next_ < items_.size() && items_[next_].at <= now) {
      submit_(items_[next_]);
      ++next_;
    }
    if (next_ < items_.size()) {
      kernel_.schedule_at(items_[next_].at, [this] { step(); });
    }
  }

  Kernel& kernel_;
  const std::vector<Item>& items_;
  Submit submit_;
  std::size_t next_ = 0;
};

Kernel make_kernel(const hmcc::system::SystemConfig& cfg) {
  return Kernel(
      Kernel::ring_size_for(hmcc::system::worst_case_event_delay(cfg)));
}

}  // namespace

std::uint64_t count_split_accesses(const hmcc::trace::MultiTrace& trace,
                                   std::uint32_t line_bytes) {
  std::uint64_t n = 0;
  for (const auto& stream : trace.per_core) {
    for (const hmcc::trace::TraceRecord& r : stream) {
      if (!r.is_access()) continue;
      n += r.size == 0 ? 1
                       : (r.addr + r.size - 1) / line_bytes -
                             r.addr / line_bytes + 1;
    }
  }
  return n;
}

std::vector<SplitAccess> split_accesses(const hmcc::trace::MultiTrace& trace,
                                        std::uint32_t line_bytes) {
  std::vector<std::vector<SplitAccess>> per_core(trace.per_core.size());
  std::size_t total = 0;
  for (std::size_t c = 0; c < trace.per_core.size(); ++c) {
    for (const hmcc::trace::TraceRecord& r : trace.per_core[c]) {
      if (!r.is_access()) continue;
      const auto core = static_cast<std::uint32_t>(c);
      std::uint32_t offset = 0;
      do {
        const hmcc::Addr addr = r.addr + offset;
        const hmcc::Addr line_end =
            hmcc::align_down(addr, line_bytes) + line_bytes;
        per_core[c].push_back({core, addr, r.type});
        offset += static_cast<std::uint32_t>(
            std::min<hmcc::Addr>(r.size - offset, line_end - addr));
      } while (offset < r.size);
    }
    total += per_core[c].size();
  }
  std::vector<SplitAccess> out;
  out.reserve(total);
  for (std::size_t i = 0; out.size() < total; ++i) {
    for (const auto& stream : per_core) {
      if (i < stream.size()) out.push_back(stream[i]);
    }
  }
  return out;
}

std::uint64_t replay_cache(const hmcc::cache::HierarchyConfig& cfg,
                           const std::vector<SplitAccess>& accesses) {
  hmcc::cache::Hierarchy hierarchy(cfg);
  for (const SplitAccess& a : accesses) {
    auto result = hierarchy.access(a.core, a.addr, a.type);
    if (result.level == hmcc::cache::HitLevel::kMemory) {
      (void)hierarchy.fill_llc(result.line_addr, /*dirty=*/false);
    }
    hierarchy.recycle(std::move(result.memory_writebacks));
  }
  return accesses.size();
}

CoalescerReplay replay_coalescer(const hmcc::system::SystemConfig& cfg,
                                 const std::vector<Miss>& misses,
                                 std::vector<IssuedPacket>* issued) {
  Kernel kernel = make_kernel(cfg);
  CoalescerReplay out;
  std::unique_ptr<coal::MemoryCoalescer> coalescer;
  coalescer = std::make_unique<coal::MemoryCoalescer>(
      kernel, cfg.coalescer,
      [&](const coal::CoalescedPacket& pkt) {
        ++out.packets;
        if (issued != nullptr) issued->push_back({kernel.now(), pkt});
        kernel.schedule(kStubLatency, [c = coalescer.get(), id = pkt.id] {
          c->on_memory_response(id);
        });
      },
      [&](hmcc::Addr, std::uint64_t) { ++out.completions; });
  auto submit = [c = coalescer.get()](const Miss& m) { c->submit(m.req); };
  Feeder<Miss, decltype(submit)> feeder(kernel, misses, submit);
  feeder.start();
  kernel.run();
  out.raw_requests = coalescer->stats().raw_requests;
  out.drained = coalescer->idle() && kernel.empty();
  return out;
}

std::vector<Window> cut_windows(const hmcc::system::SystemConfig& cfg,
                                const std::vector<Miss>& misses) {
  std::vector<Window> windows;
  if (!cfg.coalescer.enable_dmc) return windows;
  const std::size_t n = cfg.coalescer.window;
  for (std::size_t i = 0; i < misses.size(); i += n) {
    Window w;
    w.at = misses[i].at;
    for (std::size_t j = i; j < std::min(i + n, misses.size()); ++j) {
      coal::CoalescerRequest r = misses[j].req;
      r.addr = hmcc::align_down(r.addr, cfg.coalescer.line_bytes);
      r.arrival = misses[j].at;
      w.reqs.push_back(r);
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

void replay_sort(const hmcc::system::SystemConfig& cfg,
                 std::vector<Window>& windows) {
  coal::PipelinedSorter sorter(cfg.coalescer.window,
                               cfg.coalescer.pipeline_shape, cfg.coalescer.tau);
  std::vector<std::uint64_t> keys;
  for (Window& w : windows) {
    keys.assign(cfg.coalescer.window, coal::kInvalidKey);
    for (std::size_t i = 0; i < w.reqs.size(); ++i) {
      keys[i] = w.reqs[i].sort_key();
    }
    (void)sorter.process(keys, static_cast<std::uint32_t>(w.reqs.size()), w.at);
    std::stable_sort(w.reqs.begin(), w.reqs.end(),
                     [](const coal::CoalescerRequest& a,
                        const coal::CoalescerRequest& b) {
                       return a.sort_key() < b.sort_key();
                     });
  }
}

std::vector<coal::CoalescedPacket> replay_dmc(
    const hmcc::system::SystemConfig& cfg, const std::vector<Window>& windows) {
  const coal::DmcUnit dmc(cfg.coalescer);
  std::vector<coal::CoalescedPacket> packets;
  for (const Window& w : windows) {
    coal::DmcResult res = dmc.coalesce(w.reqs, w.at);
    for (coal::CoalescedPacket& p : res.packets) {
      packets.push_back(std::move(p));
    }
  }
  return packets;
}

std::vector<coal::CoalescedPacket> line_packets(
    const hmcc::system::SystemConfig& cfg, const std::vector<Miss>& misses) {
  std::vector<coal::CoalescedPacket> packets;
  packets.reserve(misses.size());
  for (const Miss& m : misses) {
    coal::CoalescedPacket pkt;
    pkt.addr = hmcc::align_down(m.req.addr, cfg.coalescer.line_bytes);
    pkt.bytes = cfg.coalescer.line_bytes;
    pkt.type = m.req.type;
    pkt.ready_at = m.at;
    pkt.constituents.push_back(m.req);
    pkt.constituents.back().addr = pkt.addr;
    packets.push_back(std::move(pkt));
  }
  return packets;
}

MshrReplay replay_mshr(const hmcc::system::SystemConfig& cfg,
                       const std::vector<coal::CoalescedPacket>& packets) {
  coal::DynamicMshrFile file(cfg.coalescer);
  MshrReplay out;
  std::deque<const coal::CoalescedPacket*> crq;
  std::deque<hmcc::ReqId> in_flight;  // issue order: fills return FIFO
  auto fill_oldest = [&] {
    const auto fill = file.on_fill(in_flight.front());
    in_flight.pop_front();
    if (fill) out.completed += fill->targets.size();
  };
  std::size_t next = 0;
  while (next < packets.size() || !crq.empty()) {
    while (next < packets.size() && crq.size() < cfg.coalescer.num_mshrs) {
      crq.push_back(&packets[next++]);
    }
    auto res = file.try_insert(*crq.front());
    if (res.accepted) {
      ++out.packets;
      out.constituents += crq.front()->constituents.size();
      crq.pop_front();
      for (const coal::CoalescedPacket& p : res.to_issue) {
        in_flight.push_back(p.id);
      }
      continue;
    }
    // The head waits for a free entry; the rest of the queue may merge.
    for (auto it = crq.begin() + 1; it != crq.end();) {
      if (file.try_merge_only(**it)) {
        ++out.packets;
        out.constituents += (*it)->constituents.size();
        it = crq.erase(it);
      } else {
        ++it;
      }
    }
    if (in_flight.empty()) break;  // rejected by an empty file: undrainable
    fill_oldest();
  }
  while (!in_flight.empty()) fill_oldest();
  out.drained = file.in_use() == 0;
  return out;
}

BackendReplay replay_backend(const hmcc::system::SystemConfig& cfg,
                             const hmcc::mem::MemConfig& mem,
                             const std::vector<IssuedPacket>& packets) {
  Kernel kernel = make_kernel(cfg);
  BackendReplay out;
  auto backend = hmcc::mem::make_backend(
      kernel, cfg.hmc, mem, [&out](hmcc::ReqId) { ++out.completed; });
  auto submit = [&out, b = backend.get()](const IssuedPacket& p) {
    ++out.submitted;
    b->submit(p.pkt);
  };
  Feeder<IssuedPacket, decltype(submit)> feeder(kernel, packets, submit);
  feeder.start();
  kernel.run();
  out.drained = backend->outstanding() == 0 && kernel.empty();
  return out;
}

}  // namespace perfbench
