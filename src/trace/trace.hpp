// Memory trace records and containers.
//
// The paper obtains per-core memory footprints from a tracer inside the
// RISC-V Spike simulator; this module is the equivalent interchange format.
// Traces are per-core (one stream per hardware thread): the system layer
// interleaves them through its core timing model, so bursts and inter-core
// mixing emerge from timing rather than being baked into a merged stream.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace hmcc::trace {

/// What a TraceRecord denotes. Markers (fence/barrier) carry NO address or
/// size: the explicit discriminant makes it impossible to mistake one for a
/// memory access — historical code reused ReqType::kLoad with addr 0 as a
/// stand-in, which a replay path could have issued as a real load of line 0.
enum class RecordKind : std::uint8_t {
  kAccess = 0,   ///< a memory load/store (addr/size/type valid)
  kFence = 1,    ///< memory fence marker (addr/size/type meaningless)
  kBarrier = 2,  ///< thread barrier marker (OpenMP join)
};

[[nodiscard]] constexpr const char* to_string(RecordKind k) noexcept {
  switch (k) {
    case RecordKind::kAccess: return "access";
    case RecordKind::kFence: return "fence";
    case RecordKind::kBarrier: return "barrier";
  }
  return "?";
}

struct TraceRecord {
  Addr addr = 0;
  std::uint32_t size = 8;  ///< bytes actually touched by the CPU access
  ReqType type = ReqType::kLoad;
  RecordKind kind = RecordKind::kAccess;

  [[nodiscard]] bool is_access() const noexcept {
    return kind == RecordKind::kAccess;
  }
  [[nodiscard]] bool is_fence() const noexcept {
    return kind == RecordKind::kFence;
  }
  [[nodiscard]] bool is_barrier() const noexcept {
    return kind == RecordKind::kBarrier;
  }

  /// Checked accessors: the address/size of a marker is not a thing, and
  /// reading one is a logic error in the replay/coalescer path. The asserts
  /// compile out of NDEBUG builds; the hot replay loop already branches on
  /// kind first, so the checked reads are free there.
  [[nodiscard]] Addr access_addr() const noexcept {
    assert(is_access() && "marker record has no address");
    return addr;
  }
  [[nodiscard]] std::uint32_t access_size() const noexcept {
    assert(is_access() && "marker record has no size");
    return size;
  }

  [[nodiscard]] static TraceRecord load(Addr a, std::uint32_t s = 8) {
    return TraceRecord{a, s, ReqType::kLoad, RecordKind::kAccess};
  }
  [[nodiscard]] static TraceRecord store(Addr a, std::uint32_t s = 8) {
    return TraceRecord{a, s, ReqType::kStore, RecordKind::kAccess};
  }
  [[nodiscard]] static TraceRecord make_fence() {
    return TraceRecord{0, 0, ReqType::kLoad, RecordKind::kFence};
  }
  /// Thread barrier: the core stalls until every still-running core reaches
  /// its own barrier record (the cores must emit them pairwise-matched, as
  /// OpenMP parallel-for joins do).
  [[nodiscard]] static TraceRecord make_barrier() {
    return TraceRecord{0, 0, ReqType::kLoad, RecordKind::kBarrier};
  }

  [[nodiscard]] friend bool operator==(const TraceRecord& a,
                                       const TraceRecord& b) noexcept {
    if (a.kind != b.kind) return false;
    if (a.kind != RecordKind::kAccess) return true;  // markers carry no data
    return a.addr == b.addr && a.size == b.size && a.type == b.type;
  }
};

/// One memory access stream per core.
struct MultiTrace {
  std::vector<std::vector<TraceRecord>> per_core;

  [[nodiscard]] std::size_t num_cores() const noexcept {
    return per_core.size();
  }
  [[nodiscard]] std::uint64_t total_records() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : per_core) n += t.size();
    return n;
  }
};

/// Summary statistics of a trace (workload-generator sanity checking).
struct TraceProfile {
  std::uint64_t records = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t fences = 0;
  std::uint64_t barriers = 0;
  std::uint64_t bytes = 0;
  std::uint64_t distinct_lines = 0;   ///< 64 B-line footprint
  double sequential_fraction = 0.0;   ///< accesses adjacent to predecessor
  Accumulator size;

  [[nodiscard]] double store_fraction() const noexcept {
    const std::uint64_t ops = loads + stores;
    return ops ? static_cast<double>(stores) / static_cast<double>(ops) : 0.0;
  }
};

[[nodiscard]] TraceProfile profile(const MultiTrace& trace);

}  // namespace hmcc::trace
