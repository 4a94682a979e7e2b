// Dynamic MSHRs: second-phase coalescing (paper §3.2.3, §3.5, Fig 6).
//
// A conventional MSHR entry is extended with:
//   * a 2-bit "size" field  (00 = 64 B, 01 = 128 B, 10 = 256 B),
//   * a "T" bit holding the request type (load/store), compared together
//     with the address as a 53-bit key, and
//   * per-subentry 2-bit "line ID" so each merged miss knows which cache
//     line of the entry's block it wants:
//        subentry.addr = entry.addr + lineID * line_size        (Eq. 2)
//
// Insertion of a coalesced packet P:
//   * full subset   (P range inside a same-type in-flight entry)  -> all of
//     P's constituents attach as subentries; no memory request  (Fig 6 A);
//   * partial overlap -> the overlapped lines attach, the remainder is
//     re-packetized and allocates new entries                   (Fig 6 B);
//   * no overlap -> a new entry holds P and one memory request issues.
// Insertion is atomic: if the remainder would need more free entries than
// exist, nothing changes and the packet stays in the CRQ.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coalescer/config.hpp"
#include "coalescer/request.hpp"
#include "common/descriptor.hpp"
#include "common/types.hpp"

namespace hmcc::coalescer {

struct DynMshrStats {
  std::uint64_t allocations = 0;
  std::uint64_t full_merges = 0;     ///< packets absorbed entirely (case A)
  std::uint64_t partial_merges = 0;  ///< packets split (case B)
  std::uint64_t merged_constituents = 0;
  std::uint64_t rejects_full = 0;    ///< file full -> packet waits in CRQ
  std::uint64_t frees = 0;
};

/// A completion target: the line this subentry requested plus the opaque
/// token the owner attached to the original request.
struct DynMshrTarget {
  Addr line_addr;
  std::uint64_t token;
};

class DynamicMshrFile {
 public:
  explicit DynamicMshrFile(const CoalescerConfig& cfg);

  struct InsertResult {
    bool accepted = false;
    /// Packets that allocated entries and must be issued to memory; their
    /// .id fields carry the assigned entry handles for on_fill(). A view of
    /// a buffer the file owns and reuses: it stays valid until the next
    /// try_insert() call on this file, so copy what must outlive that.
    std::span<const CoalescedPacket> to_issue;
  };

  /// Try to insert coalesced packet @p pkt (line-granularity; every
  /// constituent lies inside [addr, end())).
  InsertResult try_insert(const CoalescedPacket& pkt);

  /// §4.2 optimization: while a packet waits in the CRQ it is compared with
  /// all MSHRs; if (and only if) EVERY constituent is covered by in-flight
  /// same-type entries, it merges and leaves the queue. Returns true on
  /// merge; otherwise the file is untouched.
  ///
  /// Once this fails for a packet, it keeps failing until an entry is
  /// allocated that has the packet's type and overlaps [addr, end()):
  /// on_fill() only removes entries, attaches only use up subentry room,
  /// and plan_overlap()'s first-fit assignment covers no more lines after
  /// either. MemoryCoalescer::drain_crq() skips re-checks on that rule.
  bool try_merge_only(const CoalescedPacket& pkt);

  struct FillResult {
    Addr base = 0;
    std::uint32_t bytes = 0;
    ReqType type = ReqType::kLoad;
    /// A view of a buffer the file owns and reuses: it stays valid until
    /// the next on_fill() call on this file.
    std::span<const DynMshrTarget> targets;
  };

  /// Complete the entry issued as packet-id @p id; frees the entry.
  [[nodiscard]] std::optional<FillResult> on_fill(ReqId id);

  /// Bumped by every fill, attach and allocation, the only changes to the
  /// entries. try_insert() and try_merge_only() read nothing else, so a
  /// packet rejected at one version is rejected again at the same version.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  /// Count a try_insert() that the caller skipped because it would repeat
  /// a reject at the same version().
  void count_skipped_reject() noexcept { ++stats_.rejects_full; }

  [[nodiscard]] std::uint32_t in_use() const noexcept { return used_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] bool full() const noexcept { return used_ == capacity(); }
  [[nodiscard]] bool has_free_entry() const noexcept { return !full(); }
  [[nodiscard]] const DynMshrStats& stats() const noexcept { return stats_; }

  /// The MSHR file's metric schema (`hmcc_mshr_*` counters plus a sampled
  /// occupancy gauge). Sample functions read live state: the file must
  /// outlive the returned set.
  [[nodiscard]] desc::StatSet stat_descriptors() const;

 private:
  struct Subentry {
    std::uint8_t line_id;
    std::uint64_t token;
    Addr line_addr;  ///< redundant with base + line_id (kept for checking)
  };
  struct Entry {
    bool valid = false;
    ReqType type = ReqType::kLoad;  ///< the T bit
    Addr base = 0;                  ///< line-aligned base address
    std::uint32_t size_lines = 1;   ///< 1 / 2 / 4 (the 2-bit size field)
    ReqId issue_id = 0;
    std::vector<Subentry> subs;
  };
  /// What the comparators match, one per entry beside entries_: the
  /// entry's first and last line and its type. A free entry's key has
  /// first_line > last_line, so it matches no line.
  struct MatchKey {
    Addr first_line = ~Addr{0};
    Addr last_line = 0;
    ReqType type = ReqType::kLoad;
  };

  /// Planning pass: map each constituent to a coverable entry (or null) in
  /// hit_entry_. Returns the number of covered constituents; hit_entry_ is
  /// only written when that is non-zero. Mutates only the planning buffers.
  std::size_t plan_overlap(const CoalescedPacket& pkt);
  /// Commit pass: attach the constituents planned in hit_entry_ as
  /// subentries.
  void commit_attaches(const CoalescedPacket& pkt);
  /// Re-packetize the constituents in remainder_ into legal packets,
  /// appended to the issue buffer.
  void repacketize(ReqType type, Cycle ready_at);
  /// The next slot of the issue buffer; it keeps the constituent storage
  /// of earlier calls.
  CoalescedPacket& next_issue_slot();
  Entry* find_by_issue_id(ReqId id);

  CoalescerConfig cfg_;
  std::vector<Entry> entries_;
  std::vector<MatchKey> keys_;
  std::uint32_t used_ = 0;
  ReqId next_issue_id_ = 1;
  std::uint64_t version_ = 1;
  DynMshrStats stats_;
  // Planning buffers, reused by every call (sized by window and num_mshrs).
  std::vector<Entry*> hit_entry_;               ///< per constituent
  std::vector<std::uint32_t> planned_attach_;   ///< per entry
  std::vector<std::uint32_t> candidates_;       ///< per entry
  std::vector<CoalescerRequest> remainder_;     ///< uncovered constituents
  // Result buffers behind the views try_insert() and on_fill() return.
  std::vector<CoalescedPacket> to_issue_;
  std::size_t issue_count_ = 0;  ///< slots of to_issue_ in the last result
  std::vector<DynMshrTarget> targets_;
};

}  // namespace hmcc::coalescer
