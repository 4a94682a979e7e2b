#include "coalescer/dynamic_mshr.hpp"

#include <algorithm>
#include <cassert>

#include "coalescer/dmc_unit.hpp"
#include "common/bits.hpp"

namespace hmcc::coalescer {

DynamicMshrFile::DynamicMshrFile(const CoalescerConfig& cfg)
    : cfg_(cfg),
      entries_(cfg.num_mshrs),
      keys_(cfg.num_mshrs),
      planned_attach_(cfg.num_mshrs),
      candidates_(cfg.num_mshrs) {
  hit_entry_.reserve(cfg.window);
  remainder_.reserve(cfg.window);
}

CoalescedPacket& DynamicMshrFile::next_issue_slot() {
  if (issue_count_ == to_issue_.size()) to_issue_.emplace_back();
  return to_issue_[issue_count_++];
}

void DynamicMshrFile::repacketize(ReqType type, Cycle ready_at) {
  const Addr line = cfg_.line_bytes;
  const Addr block = cfg_.max_packet_bytes;
  std::sort(remainder_.begin(), remainder_.end(),
            [](const CoalescerRequest& a, const CoalescerRequest& b) {
              return a.addr < b.addr;
            });

  // Cut the sorted constituents into runs of contiguous lines inside one
  // max-packet block, then cut each run with the DMC unit's packet rule.
  const auto emit = [&](Addr addr, std::uint32_t bytes,
                        std::span<const CoalescerRequest> constituents) {
    CoalescedPacket& pkt = next_issue_slot();
    pkt.addr = addr;
    pkt.bytes = bytes;
    pkt.type = type;
    pkt.ready_at = ready_at;
    pkt.constituents.assign(constituents.begin(), constituents.end());
  };
  const std::span<const CoalescerRequest> sorted(remainder_);
  std::size_t run_begin = 0;
  for (std::size_t i = 1; i <= sorted.size(); ++i) {
    if (i < sorted.size()) {
      const Addr prev = align_down(sorted[i - 1].addr, line);
      const Addr la = align_down(sorted[i].addr, line);
      if (la == prev || (la == prev + line &&
                         align_down(la, block) == align_down(prev, block))) {
        continue;
      }
    }
    packetize_line_run(cfg_, sorted.subspan(run_begin, i - run_begin), emit);
    run_begin = i;
  }
}

std::size_t DynamicMshrFile::plan_overlap(const CoalescedPacket& pkt) {
  // For each constituent line, find a same-type in-flight entry with
  // subentry room that covers it. Phase-2 merging can be disabled for the
  // Figure 8 configuration sweep.
  if (!cfg_.enable_mshr_merge) return 0;
  // Compare the packet with every entry's key at once, as the paper's
  // parallel comparators do: the candidates are the entries of the
  // packet's type whose lines overlap its lines. The scan has no branch;
  // each entry index is written and kept only when it matches. Only a
  // candidate can cover a constituent, and candidates keep entry order, so
  // first-fit over them is first-fit over the whole file.
  const Addr first = pkt.addr;
  const Addr last = pkt.end() - cfg_.line_bytes;
  std::size_t n = 0;
  for (std::size_t e = 0; e < keys_.size(); ++e) {
    const MatchKey& k = keys_[e];
    candidates_[n] = static_cast<std::uint32_t>(e);
    n += static_cast<std::size_t>((k.type == pkt.type) &
                                  (k.first_line <= last) &
                                  (first <= k.last_line));
  }
  if (n == 0) return 0;

  hit_entry_.assign(pkt.constituents.size(), nullptr);
  for (std::size_t i = 0; i < n; ++i) planned_attach_[candidates_[i]] = 0;
  std::size_t covered = 0;
  for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
    const Addr line = align_down(pkt.constituents[c].addr, cfg_.line_bytes);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = candidates_[i];
      const MatchKey& k = keys_[e];
      Entry& entry = entries_[e];
      if (line < k.first_line || line > k.last_line ||
          entry.subs.size() + planned_attach_[e] >= cfg_.max_subentries) {
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
  ++version_;
  return true;
}

DynamicMshrFile::InsertResult DynamicMshrFile::try_insert(
    const CoalescedPacket& pkt) {
  assert(pkt.bytes % cfg_.line_bytes == 0 &&
         "dynamic MSHRs operate at line granularity");
  issue_count_ = 0;

  // --- Planning pass (touches only the planning and result buffers) ------
  const std::size_t covered = plan_overlap(pkt);
  if (covered == 0) {
    // No overlap at all: the packet allocates as-is (no re-split).
    if (full()) {
      ++stats_.rejects_full;
      return {};  // accepted = false; CRQ retries later
    }
    next_issue_slot() = pkt;
  } else if (covered < pkt.constituents.size()) {
    remainder_.clear();
    for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
      if (!hit_entry_[c]) remainder_.push_back(pkt.constituents[c]);
    }
    repacketize(pkt.type, pkt.ready_at);
    if (issue_count_ > capacity() - used_) {
      ++stats_.rejects_full;
      return {};
    }
  }

  // --- Commit pass -------------------------------------------------------
  if (covered > 0) {
    if (covered == pkt.constituents.size()) {
      ++stats_.full_merges;
    } else {
      ++stats_.partial_merges;
    }
    commit_attaches(pkt);
  }
  const std::span<CoalescedPacket> issued(to_issue_.data(), issue_count_);
  for (CoalescedPacket& np : issued) {
    std::size_t slot = 0;
    while (slot < entries_.size() && entries_[slot].valid) ++slot;
    assert(slot < entries_.size() && "capacity was checked in planning");
    Entry& e = entries_[slot];
    e.valid = true;
    e.type = np.type;
    e.base = np.addr;
    e.size_lines = np.bytes / cfg_.line_bytes;
    e.issue_id = next_issue_id_++;
    e.subs.clear();
    for (const CoalescerRequest& r : np.constituents) {
      const Addr line = align_down(r.addr, cfg_.line_bytes);
      Subentry s{};
      s.line_id = static_cast<std::uint8_t>((line - e.base) / cfg_.line_bytes);
      s.token = r.token;
      s.line_addr = line;
      e.subs.push_back(s);
    }
    keys_[slot] = MatchKey{np.addr, np.end() - cfg_.line_bytes, np.type};
    ++used_;
    ++stats_.allocations;
    np.id = e.issue_id;
  }
  ++version_;
  return {true, issued};
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
  targets_.clear();
  for (const Subentry& s : e->subs) {
    // Equation (2): subentry address derives from base + lineID * line size.
    const Addr derived =
        e->base + static_cast<Addr>(s.line_id) * cfg_.line_bytes;
    assert(derived == s.line_addr);
    targets_.push_back(DynMshrTarget{derived, s.token});
  }
  r.targets = targets_;
  e->valid = false;
  e->subs.clear();
  keys_[static_cast<std::size_t>(e - entries_.data())] = MatchKey{};
  --used_;
  ++stats_.frees;
  ++version_;
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
