// Isolated per-layer replays. Each one feeds a layer's public interface the
// inputs captured from a full System run, so the benchmark can time that
// layer alone and check it consumed exactly what was captured.
#pragma once

#include <cstdint>
#include <vector>

#include "coalescer/request.hpp"
#include "system/config.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// One request that entered the coalescer during a full run, with the
/// kernel cycle it arrived at (System::set_miss_hook + kernel().now()).
struct Miss {
  hmcc::Cycle at = 0;
  hmcc::coalescer::CoalescerRequest req;
};

/// One packet the coalescer replay issued to memory, with its issue cycle.
struct IssuedPacket {
  hmcc::Cycle at = 0;
  hmcc::coalescer::CoalescedPacket pkt;
};

/// One line-split CPU access as System::step_core presents it to the caches.
struct SplitAccess {
  std::uint32_t core = 0;
  hmcc::Addr addr = 0;
  hmcc::ReqType type = hmcc::ReqType::kLoad;
};

/// A sorting window cut from the miss stream (line-aligned addresses).
struct Window {
  hmcc::Cycle at = 0;
  std::vector<hmcc::coalescer::CoalescerRequest> reqs;
};

/// Fixed round trip of the stub memory behind the coalescer replay, cycles.
inline constexpr hmcc::Cycle kStubLatency = 400;

/// CPU accesses System::run replays for @p trace: each access record counts
/// once per @p line_bytes line it touches (a zero-byte access counts once).
/// Arithmetic only, so it checks the System's count independently.
[[nodiscard]] std::uint64_t count_split_accesses(
    const hmcc::trace::MultiTrace& trace, std::uint32_t line_bytes);

/// Line-split accesses of @p trace, interleaved round-robin across cores.
[[nodiscard]] std::vector<SplitAccess> split_accesses(
    const hmcc::trace::MultiTrace& trace, std::uint32_t line_bytes);

/// Replay @p accesses through a fresh cache::Hierarchy: access(), and
/// fill_llc() right away for every LLC miss. Returns accesses replayed.
std::uint64_t replay_cache(const hmcc::cache::HierarchyConfig& cfg,
                           const std::vector<SplitAccess>& accesses);

struct CoalescerReplay {
  std::uint64_t raw_requests = 0;  ///< coalescer's own raw-request count
  std::uint64_t completions = 0;   ///< per-request completions delivered
  std::uint64_t packets = 0;       ///< packets issued to the stub memory
  bool drained = false;            ///< coalescer idle, kernel empty
};

/// Submit @p misses at their cycles into a standalone MemoryCoalescer over
/// a kStubLatency memory. Appends every issued packet to @p issued when it
/// is non-null.
CoalescerReplay replay_coalescer(const hmcc::system::SystemConfig& cfg,
                                 const std::vector<Miss>& misses,
                                 std::vector<IssuedPacket>* issued);

/// The miss stream cut into consecutive window-sized batches. Empty when
/// the configuration runs no sorter (dmc off).
[[nodiscard]] std::vector<Window> cut_windows(
    const hmcc::system::SystemConfig& cfg, const std::vector<Miss>& misses);

/// PipelinedSorter::process on each window's padded key vector, then the
/// batch ordering the coalescer applies; sorts @p windows in place.
void replay_sort(const hmcc::system::SystemConfig& cfg,
                 std::vector<Window>& windows);

/// DmcUnit::coalesce on each sorted window. Returns the packets.
std::vector<hmcc::coalescer::CoalescedPacket> replay_dmc(
    const hmcc::system::SystemConfig& cfg, const std::vector<Window>& windows);

/// One line-sized packet per miss: what the conventional path (dmc off)
/// offers the MSHR file.
[[nodiscard]] std::vector<hmcc::coalescer::CoalescedPacket> line_packets(
    const hmcc::system::SystemConfig& cfg, const std::vector<Miss>& misses);

struct MshrReplay {
  std::uint64_t packets = 0;       ///< packets consumed
  std::uint64_t constituents = 0;  ///< constituents inside those packets
  std::uint64_t completed = 0;     ///< fill targets delivered
  bool drained = false;            ///< every entry freed
};

/// Drive a DynamicMshrFile with @p packets through a CRQ-sized queue:
/// try_insert() on the head, try_merge_only() on the rest while the head
/// waits, and on_fill() of the oldest entry (FIFO) to make room.
MshrReplay replay_mshr(
    const hmcc::system::SystemConfig& cfg,
    const std::vector<hmcc::coalescer::CoalescedPacket>& packets);

struct BackendReplay {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  bool drained = false;  ///< outstanding() == 0 and kernel empty
};

/// Submit @p packets at their issue cycles to mem::make_backend(@p mem).
BackendReplay replay_backend(const hmcc::system::SystemConfig& cfg,
                             const hmcc::mem::MemConfig& mem,
                             const std::vector<IssuedPacket>& packets);

}  // namespace perfbench
