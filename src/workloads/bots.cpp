// Barcelona OpenMP Tasks Suite representatives: SparseLU and Sort.
#include "workloads/generators.hpp"

#include <algorithm>

namespace hmcc::workloads::detail {
namespace {

using trace::MultiTrace;
using trace::TraceRecord;

/// BOTS SparseLU: LU factorization of a matrix of dense sub-blocks (many
/// empty). The dominant bmod() updates of one panel are processed
/// cooperatively: the cores stripe line-sized element chunks of the shared
/// panel cyclically (read A, read B, update C), so the aggregated miss
/// stream is long runs of consecutive lines — the second-best coalescing
/// profile after FT, matching its 22.21% paper speedup.
class SparseLuWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.24; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kPanelElems = (16ULL << 10) / 8;  // 16 KB panel
    constexpr std::uint64_t kChunkElems = 8;
    constexpr std::uint64_t kNumPanels = (80ULL << 20) / (kPanelElems * 8);
    const Addr pool = shared_base(p);
    const std::uint64_t accesses = p.accesses_per_core * 3 / 2;
    Xoshiro256 sched_rng(p.seed * 92821);  // shared task schedule
    std::vector<std::uint64_t> panels;      // panel sequence (shared)
    // Enough panels for the largest per-core budget.
    const std::uint64_t needed =
        accesses / (3 * kPanelElems / p.num_cores) + 4;
    for (std::uint64_t i = 0; i < needed * 3; ++i) {
      panels.push_back(sched_rng.below(kNumPanels));
    }
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      std::uint64_t budget = accesses;
      std::uint64_t pi = 0;
      while (budget > 0) {
        // bmod: read panel A, read panel B, update panel C; each panel is
        // swept cooperatively in cyclic line chunks.
        for (int b = 0; b < 3 && budget > 0; ++b) {
          const Addr base = pool + panels[pi + static_cast<std::uint64_t>(b)] *
                                       kPanelElems * 8;
          const bool is_update = b == 2;
          const std::uint64_t chunks = kPanelElems / kChunkElems;
          for (std::uint64_t ch = core; ch < chunks && budget > 0;
               ch += p.num_cores) {
            for (std::uint64_t e = ch * kChunkElems;
                 e < (ch + 1) * kChunkElems && budget > 0; ++e) {
              if (is_update) {
                out.store(base + e * 8, 8);
              } else {
                out.load(base + e * 8, 8);
              }
              --budget;
            }
          }
          out.barrier();
        }
        pi += 3;
      }
    }
    return mt;
  }
};

/// BOTS Sort: parallel mergesort. A merge pass is parallelized over the
/// output: each core produces line-sized output chunks cyclically, reading
/// the corresponding (data-dependently jittered) positions of the two
/// sorted input runs. Adjacent output chunks read overlapping input lines,
/// which both coalesces across cores and feeds the MSHR-merge baseline.
class SortWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.36; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kChunkElems = 8;
    const Addr arena = shared_base(p);
    const Addr run_a = arena;
    const Addr run_b = arena + (24ULL << 20);
    const Addr dest = arena + (48ULL << 20);
    const std::uint64_t iters_per_core = p.accesses_per_core / 3;
    const std::uint64_t chunks_per_core = iters_per_core / kChunkElems;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Xoshiro256 rng(p.seed * 31337 + core);
      Emitter out(mt.per_core[core]);
      for (std::uint64_t k = 0; k < chunks_per_core; ++k) {
        const std::uint64_t chunk = k * p.num_cores + core;
        for (std::uint64_t e = 0; e < kChunkElems; ++e) {
          const std::uint64_t i = chunk * kChunkElems + e;
          // The merge consumed ~i/2 elements from each input by output
          // position i, +- a small data-dependent wobble.
          const std::uint64_t pos = i / 2 + rng.below(4);
          if (rng.chance(0.5)) {
            out.load(run_a + pos * 8, 8);
          } else {
            out.load(run_b + pos * 8, 8);
          }
          out.store(dest + i * 8, 8);
          out.load(rng.chance(0.5) ? run_a + pos * 8 : run_b + pos * 8, 8);
        }
        out.barrier_every(k, 8);
      }
    }
    return mt;
  }
};

}  // namespace

std::unique_ptr<Workload> make_sparselu() {
  return std::make_unique<SparseLuWorkload>();
}
std::unique_ptr<Workload> make_sort() {
  return std::make_unique<SortWorkload>();
}

}  // namespace hmcc::workloads::detail
