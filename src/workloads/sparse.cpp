// Sparse/irregular suite: HPCG (27-point stencil SpMV), NAS CG
// (random-sparsity SpMV) and SSCA2 (scale-free graph traversal).
#include "workloads/generators.hpp"

#include <algorithm>

namespace hmcc::workloads::detail {
namespace {

using trace::MultiTrace;
using trace::TraceRecord;

/// HPCG: y = A x with a 27-point stencil matrix, rows distributed cyclically
/// over the cores. Per row: 27 sequential 16 B (value, column) loads from
/// the shared matrix — coalescable across cores working adjacent rows —
/// interleaved with 27 8 B gathers of the shared x vector at stencil
/// neighbour offsets. Adjacent rows reuse 26/27 of their x entries, so most
/// gathers hit the caches while *cold* x lines stream in near-sequentially;
/// the payload mix is dominated by the small 16 B matrix pairs, giving the
/// paper's Figure 10 profile and its "high coalescing efficiency but low
/// bandwidth efficiency" observation.
class HpcgWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.90; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kNx = 128;
    constexpr std::uint64_t kNy = 128;
    const Addr mtx = shared_base(p);      // (val,col) pairs, 16 B each
    const Addr x = mtx + (96ULL << 20);   // shared vector x
    const Addr y = mtx + (160ULL << 20);  // result y
    const std::uint64_t rows_per_core = p.accesses_per_core / (27 * 2 + 1);
    const std::uint64_t total_rows = rows_per_core * p.num_cores;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      for (std::uint64_t k = 0; k < rows_per_core; ++k) {
        const std::uint64_t row = k * p.num_cores + core;  // cyclic rows
        std::uint64_t nnz = row * 27;
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              out.load(mtx + nnz * 16, 16);
              ++nnz;
              const std::int64_t col =
                  static_cast<std::int64_t>(row) + dx +
                  dy * static_cast<std::int64_t>(kNx) +
                  dz * static_cast<std::int64_t>(kNx * kNy);
              const std::uint64_t safe = static_cast<std::uint64_t>(
                  std::clamp<std::int64_t>(
                      col, 0, static_cast<std::int64_t>(total_rows +
                                                        kNx * kNy) - 1));
              out.load(x + safe * 8, 8);
            }
          }
        }
        out.store(y + row * 8, 8);
        out.barrier_every(k, 4);
      }
    }
    return mt;
  }
};

/// NAS CG: SpMV with *random* column sparsity. The value stream is shared
/// and row-cyclic like HPCG, but the x gathers are skewed-random over a
/// large shared vector: far less coalescing opportunity, and the popular x
/// lines feed the conventional-MSHR merge baseline.
class CgWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 1.00; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kNnzPerRow = 13;
    constexpr std::uint64_t kVecBytes = 40ULL << 20;
    const Addr val = shared_base(p);
    const Addr x = val + (64ULL << 20);
    const Addr y = val + (112ULL << 20);
    const std::uint64_t rows_per_core =
        p.accesses_per_core / (2 * kNnzPerRow + 1);
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Xoshiro256 rng(p.seed * 13007 + core);
      Emitter out(mt.per_core[core]);
      for (std::uint64_t k = 0; k < rows_per_core; ++k) {
        const std::uint64_t row = k * p.num_cores + core;
        for (std::uint64_t e = 0; e < kNnzPerRow; ++e) {
          out.load(val + (row * kNnzPerRow + e) * 8, 8);
          out.load(x + skewed_index(rng, kVecBytes / 8) * 8, 8);
        }
        out.store(y + row * 8, 8);
        out.barrier_every(k, 16);
      }
    }
    return mt;
  }
};

/// SSCA2: kernel-4-style frontier traversal of a shared scale-free graph.
/// The cores cooperatively drain a frontier: each round visits one vertex —
/// a hub-skewed random 8 B pointer load per core — and the vertex's
/// adjacency list is processed collectively in line-sized chunks (cyclic
/// across cores), as a parallel edge-centric implementation does. Hub
/// vertices have long edge lists (coalescable bursts); the tail has short
/// ones.
class Ssca2Workload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.90; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kVertices = (24ULL << 20) / 8;
    constexpr std::uint64_t kEdgeElems = (64ULL << 20) / 8;
    constexpr std::uint64_t kChunkEdges = 8;  // one line of 8 B edges
    const Addr vtx = shared_base(p);
    const Addr edges = vtx + (24ULL << 20);
    const Addr visited = vtx + (96ULL << 20);
    // The frontier walk is shared program state: one RNG drives it and all
    // cores see the same vertex order.
    Xoshiro256 frontier_rng(p.seed * 65537);
    std::vector<std::uint64_t> budget(p.num_cores, p.accesses_per_core);
    bool work_left = true;
    std::uint64_t rounds = 0;
    while (work_left) {
      const std::uint64_t v = skewed_index(frontier_rng, kVertices);
      // Power-law degree: hubs (frequently revisited) have big lists.
      std::uint64_t degree = 2 + frontier_rng.below(6);
      if (frontier_rng.chance(0.15)) {
        degree = 32 + frontier_rng.below(160);
      }
      const std::uint64_t elist =
          frontier_rng.below(kEdgeElems - degree - kChunkEdges);
      const std::uint64_t chunks = (degree + kChunkEdges - 1) / kChunkEdges;
      work_left = false;
      ++rounds;
      for (std::uint32_t core = 0; core < p.num_cores; ++core) {
        if (budget[core] == 0) continue;
        Emitter out(mt.per_core[core]);
        // The owning core dereferences the vertex record and marks it
        // visited; the edge list is processed collectively.
        if (core == v % p.num_cores) {
          out.load(vtx + v * 8, 8);
          --budget[core];
        }
        for (std::uint64_t ch = core; ch < chunks && budget[core] > 0;
             ch += p.num_cores) {
          for (std::uint64_t e = ch * kChunkEdges;
               e < std::min(degree, (ch + 1) * kChunkEdges) &&
               budget[core] > 0;
               ++e) {
            out.load(edges + (elist + e) * 8, 8);
            --budget[core];
          }
        }
        if (budget[core] > 0 && core == v % p.num_cores) {
          out.store(visited + v, 1);
          --budget[core];
        }
        work_left = work_left || budget[core] > 0;
      }
      if (rounds % 4 == 0) {
        // Pairwise-matched joins: every core emits the barrier, including
        // ones whose budget ran out (they just wait at it).
        barrier_all(mt);
      }
    }
    return mt;
  }
};

}  // namespace

std::unique_ptr<Workload> make_hpcg() {
  return std::make_unique<HpcgWorkload>();
}
std::unique_ptr<Workload> make_cg() { return std::make_unique<CgWorkload>(); }
std::unique_ptr<Workload> make_ssca2() {
  return std::make_unique<Ssca2Workload>();
}

}  // namespace hmcc::workloads::detail
