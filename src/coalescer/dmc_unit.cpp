#include "coalescer/dmc_unit.hpp"

#include <algorithm>
#include <cassert>

#include "common/bits.hpp"
#include "hmc/packet.hpp"

namespace hmcc::coalescer {

DmcResult DmcUnit::coalesce(std::span<const CoalescerRequest> sorted,
                            Cycle start) const {
  // Precondition: ascending sort-key order (checked in debug builds).
#ifndef NDEBUG
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    assert(sorted[i - 1].sort_key() <= sorted[i].sort_key());
  }
#endif
  DmcResult result;
  const std::uint32_t line = cfg_.line_bytes;
  const Addr block = cfg_.max_packet_bytes;
  Cycle t = start + cfg_.tau;  // pipeline fill

  std::size_t i = 0;
  while (i < sorted.size()) {
    // Open a run at request i.
    const std::size_t run_begin = i;
    const ReqType type = sorted[i].type;
    const Addr run_block = align_down(sorted[i].addr, block);
    Addr last_line = align_down(sorted[i].addr, line);
    t += cfg_.tau;  // compare slot of the run opener
    ++i;

    while (i < sorted.size()) {
      const CoalescerRequest& next = sorted[i];
      if (next.type != type) break;
      const Addr next_line = align_down(next.addr, line);
      t += cfg_.tau;  // every candidate spends a compare slot
      if (next_line == last_line) {
        // Identical line: dedup-merge into the current line group.
        t += cfg_.tau;  // merge stage
        ++result.merge_ops;
        ++i;
        continue;
      }
      if (next_line == last_line + line &&
          align_down(next_line, block) == run_block) {
        last_line = next_line;
        t += cfg_.tau;  // merge stage
        ++result.merge_ops;
        ++i;
        continue;
      }
      // Not coalescable with this run: the compare already happened; the
      // request re-opens a run on the next outer iteration (its compare slot
      // there is the same hardware slot, so refund it).
      t -= cfg_.tau;
      break;
    }
    packetize_line_run(
        cfg_, sorted.subspan(run_begin, i - run_begin),
        [&](Addr addr, std::uint32_t bytes,
            std::span<const CoalescerRequest> constituents) {
          CoalescedPacket& pkt = result.packets.emplace_back();
          pkt.addr = addr;
          pkt.bytes = bytes;
          pkt.type = type;
          pkt.ready_at = t;
          pkt.constituents.assign(constituents.begin(), constituents.end());
        });
  }
  result.finished_at = t;
  return result;
}

DmcResult coalesce_payload(const CoalescerConfig& cfg,
                           std::span<const CoalescerRequest> sorted,
                           Cycle start) {
  assert(std::is_sorted(sorted.begin(), sorted.end(),
                        [](const CoalescerRequest& a,
                           const CoalescerRequest& b) {
                          return a.sort_key() < b.sort_key();
                        }));
  DmcResult result;
  const Addr block = cfg.max_packet_bytes;
  const Addr flit = hmcspec::kFlitBytes;
  Cycle t = start + cfg.tau;

  struct Extent {
    Addr base = 0;  ///< FLIT-aligned start
    Addr end = 0;   ///< un-aligned end of covered payload
    ReqType type = ReqType::kLoad;
    std::vector<CoalescerRequest> constituents;
    bool open = false;
  } cur;

  auto emit = [&](Cycle ready_at) {
    if (!cur.open) return;
    const Addr end_aligned = align_up(cur.end, flit);
    const auto len = static_cast<std::uint32_t>(end_aligned - cur.base);
    CoalescedPacket pkt{};
    pkt.bytes = hmc::round_up_request_size(len);
    // If rounding (e.g. 144 B -> 256 B) would spill past the block from the
    // extent base, anchor the packet at the block start instead; the extent
    // is inside one block by construction, so containment holds.
    pkt.addr = cur.base + pkt.bytes <= align_down(cur.base, block) + block
                   ? cur.base
                   : align_down(cur.base, block);
    pkt.type = cur.type;
    pkt.ready_at = ready_at;
    pkt.constituents = std::move(cur.constituents);
    result.packets.push_back(std::move(pkt));
    cur = Extent{};
  };

  // Split any request that itself straddles a block boundary, then process
  // the (still sorted) stream.
  std::vector<CoalescerRequest> reqs;
  reqs.reserve(sorted.size());
  for (const CoalescerRequest& r : sorted) {
    const Addr end = r.addr + r.payload_bytes;
    const Addr boundary = align_down(r.addr, block) + block;
    if (end > boundary) {
      CoalescerRequest head = r;
      head.payload_bytes = static_cast<std::uint32_t>(boundary - r.addr);
      CoalescerRequest tail = r;
      tail.addr = boundary;
      tail.payload_bytes = static_cast<std::uint32_t>(end - boundary);
      reqs.push_back(head);
      reqs.push_back(tail);
    } else {
      reqs.push_back(r);
    }
  }

  for (const CoalescerRequest& r : reqs) {
    const Addr r_base = align_down(r.addr, flit);
    const Addr r_end = r.addr + r.payload_bytes;
    t += cfg.tau;  // compare slot
    if (cur.open && r.type == cur.type && r.addr <= align_up(cur.end, flit) &&
        align_down(r_base, block) == align_down(cur.base, block) &&
        align_up(std::max(cur.end, r_end), flit) - cur.base <=
            cfg.max_packet_bytes) {
      cur.end = std::max(cur.end, r_end);
      cur.constituents.push_back(r);
      t += cfg.tau;  // merge stage
      ++result.merge_ops;
      continue;
    }
    emit(t - cfg.tau);
    cur.open = true;
    cur.base = r_base;
    cur.end = r_end;
    cur.type = r.type;
    cur.constituents.push_back(r);
  }
  emit(t);
  result.finished_at = t;
  return result;
}

}  // namespace hmcc::coalescer
