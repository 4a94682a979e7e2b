// Scatter/Gather and STREAM: the two hand-written kernels of the paper's
// suite.
#include "workloads/generators.hpp"

#include <vector>

namespace hmcc::workloads::detail {
namespace {

using trace::MultiTrace;
using trace::TraceRecord;

/// Records one core emits in either kernel: three accesses per element
/// plus the barrier closing every fourth chunk.
std::uint64_t records_per_core(std::uint64_t chunks, std::uint64_t elems) {
  return chunks * elems * 3 + chunks / 4;
}

/// STREAM triad: a[i] = b[i] + s * c[i] over SHARED arrays with a cyclic
/// OpenMP schedule (one cache line of elements per chunk). Each core's own
/// miss stream is strided by num_cores lines, but the cores advance in
/// lock-ish step, so the aggregated window holds runs of consecutive lines —
/// the multi-core coalescing case the paper's §3.1 argues for.
class StreamWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.22; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kChunkElems = 8;  // one 64 B line of doubles
    const Addr a = shared_base(p);
    const Addr b = a + (24ULL << 20);
    const Addr c = a + (48ULL << 20);
    const std::uint64_t iters_per_core = p.accesses_per_core / 3;
    const std::uint64_t chunks_per_core = iters_per_core / kChunkElems;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      out.reserve(records_per_core(chunks_per_core, kChunkElems));
      for (std::uint64_t k = 0; k < chunks_per_core; ++k) {
        const std::uint64_t chunk = k * p.num_cores + core;  // cyclic
        for (std::uint64_t e = 0; e < kChunkElems; ++e) {
          const std::uint64_t i = chunk * kChunkElems + e;
          out.load(b + i * 8, 8);
          out.load(c + i * 8, 8);
          out.store(a + i * 8, 8);
        }
        // OpenMP-style join every few rounds keeps the cores in step, so
        // their aggregated misses stay consecutive.
        out.barrier_every(k, 4);
      }
    }
    return mt;
  }
};

/// Scatter/Gather: out[i] = data[idx[i]] over a shared index stream whose
/// gather targets form a clustered random walk over the table (gathers in
/// real applications are usually partially sorted / bucketed): the cores —
/// which take line-sized index chunks cyclically — collectively touch runs
/// of adjacent table lines with occasional long jumps. idx/out streams are
/// sequential.
class SgWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.29; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kChunkElems = 8;
    constexpr std::uint64_t kTableElems = (48ULL << 20) / 8;
    const Addr idx = shared_base(p);
    const Addr data = idx + (16ULL << 20);
    const Addr res = idx + (80ULL << 20);
    const std::uint64_t iters_per_core = p.accesses_per_core / 3;
    const std::uint64_t chunks_per_core = iters_per_core / kChunkElems;

    // Precompute the shared gather-position walk (identical for every core:
    // it is program data, not a per-thread stream).
    const std::uint64_t total_elems =
        chunks_per_core * p.num_cores * kChunkElems;
    std::vector<std::uint64_t> gather_pos(total_elems);
    Xoshiro256 walk_rng(p.seed * 7919);
    std::uint64_t pos = walk_rng.below(kTableElems);
    for (std::uint64_t i = 0; i < total_elems; ++i) {
      if (walk_rng.chance(0.04)) {
        pos = walk_rng.below(kTableElems);  // occasional long jump
      } else {
        pos = (pos + 1 + walk_rng.below(3)) % kTableElems;  // local walk
      }
      gather_pos[i] = pos;
    }

    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      out.reserve(records_per_core(chunks_per_core, kChunkElems));
      for (std::uint64_t k = 0; k < chunks_per_core; ++k) {
        const std::uint64_t chunk = k * p.num_cores + core;
        for (std::uint64_t e = 0; e < kChunkElems; ++e) {
          const std::uint64_t i = chunk * kChunkElems + e;
          out.load(idx + i * 8, 8);
          out.load(data + gather_pos[i] * 8, 8);
          out.store(res + i * 8, 8);
        }
        out.barrier_every(k, 4);
      }
    }
    return mt;
  }
};

}  // namespace

std::unique_ptr<Workload> make_stream() {
  return std::make_unique<StreamWorkload>();
}
std::unique_ptr<Workload> make_sg() { return std::make_unique<SgWorkload>(); }

}  // namespace hmcc::workloads::detail
