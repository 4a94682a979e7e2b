#include "coalescer/dynamic_mshr.hpp"

#include <algorithm>
#include <cassert>

#include "coalescer/dmc_unit.hpp"
#include "common/bits.hpp"

namespace hmcc::coalescer {

DynamicMshrFile::DynamicMshrFile(const CoalescerConfig& cfg)
    : cfg_(cfg), entries_(cfg.num_mshrs), planned_attach_(cfg.num_mshrs) {
  hit_entry_.reserve(cfg.window);
  remainder_.reserve(cfg.window);
}

bool DynamicMshrFile::covers(const Entry& e, Addr line_addr) const noexcept {
  return line_addr >= e.base &&
         line_addr < e.base + static_cast<Addr>(e.size_lines) * cfg_.line_bytes;
}

void DynamicMshrFile::repacketize(ReqType type, Cycle ready_at,
                                  std::vector<CoalescedPacket>& out) {
  const Addr line = cfg_.line_bytes;
  const Addr block = cfg_.max_packet_bytes;
  std::sort(remainder_.begin(), remainder_.end(),
            [](const CoalescerRequest& a, const CoalescerRequest& b) {
              return a.addr < b.addr;
            });

  // Group constituents by line into runs of contiguous lines inside one
  // max-packet block, then cut each run with the DMC unit's packet rule.
  std::vector<std::vector<CoalescerRequest>> run;
  Addr run_base = 0;
  Addr last_line = 0;
  for (CoalescerRequest& r : remainder_) {
    const Addr la = align_down(r.addr, line);
    if (!run.empty() && la == last_line) {
      run.back().push_back(std::move(r));
      continue;
    }
    const bool same_block =
        align_down(la, block) == align_down(run_base, block);
    if (!run.empty() && (la != last_line + line || !same_block)) {
      packetize_line_run(cfg_, run_base, run, type, ready_at, out);
      run.clear();
    }
    if (run.empty()) run_base = la;
    run.emplace_back().push_back(std::move(r));
    last_line = la;
  }
  if (!run.empty()) {
    packetize_line_run(cfg_, run_base, run, type, ready_at, out);
  }
}

std::size_t DynamicMshrFile::plan_overlap(const CoalescedPacket& pkt) {
  // For each constituent line, find a same-type in-flight entry with
  // subentry room that covers it. Phase-2 merging can be disabled for the
  // Figure 8 configuration sweep.
  hit_entry_.assign(pkt.constituents.size(), nullptr);
  if (!cfg_.enable_mshr_merge) return 0;
  std::fill(planned_attach_.begin(), planned_attach_.end(), 0);
  std::size_t covered = 0;
  for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
    const Addr line = align_down(pkt.constituents[c].addr, cfg_.line_bytes);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      Entry& entry = entries_[e];
      if (!entry.valid || entry.type != pkt.type || !covers(entry, line)) {
        continue;
      }
      if (entry.subs.size() + planned_attach_[e] >= cfg_.max_subentries) {
        continue;
      }
      hit_entry_[c] = &entry;
      ++planned_attach_[e];
      ++covered;
      break;
    }
  }
  return covered;
}

void DynamicMshrFile::commit_attaches(const CoalescedPacket& pkt) {
  for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
    if (Entry* e = hit_entry_[c]) {
      const CoalescerRequest& r = pkt.constituents[c];
      const Addr line = align_down(r.addr, cfg_.line_bytes);
      Subentry s{};
      s.line_id = static_cast<std::uint8_t>((line - e->base) / cfg_.line_bytes);
      s.token = r.token;
      s.line_addr = line;
      e->subs.push_back(s);
      ++stats_.merged_constituents;
    }
  }
}

bool DynamicMshrFile::try_merge_only(const CoalescedPacket& pkt) {
  const std::size_t covered = plan_overlap(pkt);
  if (covered != pkt.constituents.size()) return false;
  commit_attaches(pkt);
  ++stats_.full_merges;
  return true;
}

DynamicMshrFile::InsertResult DynamicMshrFile::try_insert(
    const CoalescedPacket& pkt) {
  assert(pkt.bytes % cfg_.line_bytes == 0 &&
         "dynamic MSHRs operate at line granularity");
  InsertResult result;

  // --- Planning pass (touches only the planning buffers) -----------------
  const std::size_t covered = plan_overlap(pkt);
  if (covered == 0) {
    // No overlap at all: the packet allocates as-is (no re-split).
    if (full()) {
      ++stats_.rejects_full;
      return result;  // accepted = false; CRQ retries later
    }
    result.to_issue.push_back(pkt);
  } else if (covered < pkt.constituents.size()) {
    remainder_.clear();
    for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
      if (!hit_entry_[c]) remainder_.push_back(pkt.constituents[c]);
    }
    repacketize(pkt.type, pkt.ready_at, result.to_issue);
    if (result.to_issue.size() > capacity() - used_) {
      ++stats_.rejects_full;
      result.to_issue.clear();
      return result;
    }
  }

  // --- Commit pass -------------------------------------------------------
  if (covered == pkt.constituents.size()) {
    ++stats_.full_merges;
  } else if (covered > 0) {
    ++stats_.partial_merges;
  }
  commit_attaches(pkt);
  for (CoalescedPacket& np : result.to_issue) {
    Entry* slot = nullptr;
    for (Entry& e : entries_) {
      if (!e.valid) {
        slot = &e;
        break;
      }
    }
    assert(slot && "capacity was checked in the planning pass");
    slot->valid = true;
    slot->type = np.type;
    slot->base = np.addr;
    slot->size_lines = np.bytes / cfg_.line_bytes;
    slot->issue_id = next_issue_id_++;
    slot->subs.clear();
    for (const CoalescerRequest& r : np.constituents) {
      const Addr line = align_down(r.addr, cfg_.line_bytes);
      Subentry s{};
      s.line_id =
          static_cast<std::uint8_t>((line - slot->base) / cfg_.line_bytes);
      s.token = r.token;
      s.line_addr = line;
      slot->subs.push_back(s);
    }
    ++used_;
    ++stats_.allocations;
    np.id = slot->issue_id;
  }
  result.accepted = true;
  return result;
}

DynamicMshrFile::Entry* DynamicMshrFile::find_by_issue_id(ReqId id) {
  for (Entry& e : entries_) {
    if (e.valid && e.issue_id == id) return &e;
  }
  return nullptr;
}

std::optional<DynamicMshrFile::FillResult> DynamicMshrFile::on_fill(ReqId id) {
  Entry* e = find_by_issue_id(id);
  if (!e) return std::nullopt;
  FillResult r;
  r.base = e->base;
  r.bytes = e->size_lines * cfg_.line_bytes;
  r.type = e->type;
  r.targets.reserve(e->subs.size());
  for (const Subentry& s : e->subs) {
    // Equation (2): subentry address derives from base + lineID * line size.
    const Addr derived =
        e->base + static_cast<Addr>(s.line_id) * cfg_.line_bytes;
    assert(derived == s.line_addr);
    r.targets.push_back(DynMshrTarget{derived, s.token});
  }
  e->valid = false;
  e->subs.clear();
  --used_;
  ++stats_.frees;
  return r;
}

desc::StatSet DynamicMshrFile::stat_descriptors() const {
  const DynMshrStats& s = stats_;
  desc::StatSet set;
  set.counter("hmcc_mshr_allocations_total", "Dynamic MSHR entries allocated",
              [&s] { return s.allocations; })
      .counter("hmcc_mshr_full_merges_total",
               "Packets absorbed entirely by in-flight entries (Fig 6 A)",
               [&s] { return s.full_merges; })
      .counter("hmcc_mshr_partial_merges_total",
               "Packets split across in-flight entries (Fig 6 B)",
               [&s] { return s.partial_merges; })
      .counter("hmcc_mshr_merged_constituents_total",
               "Constituent requests attached as subentries",
               [&s] { return s.merged_constituents; })
      .counter("hmcc_mshr_rejects_full_total",
               "Insertions refused because the file was full",
               [&s] { return s.rejects_full; })
      .counter("hmcc_mshr_frees_total", "Entries freed on fill",
               [&s] { return s.frees; })
      .sampled_gauge("hmcc_mshr_occupancy",
                     "Dynamic MSHR entries in use",
                     {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
                     [this] { return static_cast<double>(in_use()); });
  return set;
}

}  // namespace hmcc::coalescer
