// NAS Parallel Benchmarks representatives: EP, FT, IS, LU, SP.
#include "workloads/generators.hpp"

#include <algorithm>

namespace hmcc::workloads::detail {
namespace {

using trace::MultiTrace;
using trace::TraceRecord;

/// NAS EP: embarrassingly parallel Gaussian-pair generation. Almost all
/// work is register/cache-resident; memory traffic is a thin stream of
/// skewed-random 8 B tally updates on a shared histogram plus constant
/// table reads. Lowest coalescing gain and smallest speedup in the paper.
class EpWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 1.00; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kHistBytes = 24ULL << 20;
    const Addr hist = shared_base(p);
    const Addr small_tbl = hist + (32ULL << 20);
    const std::uint64_t accesses = p.accesses_per_core / 3;  // light traffic
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Xoshiro256 rng(p.seed * 50021 + core);
      Emitter out(mt.per_core[core]);
      std::uint64_t budget = accesses;
      while (budget > 0) {
        if (rng.chance(0.7)) {
          const Addr a = hist + skewed_index(rng, kHistBytes / 8) * 8;
          out.load(a, 8);
          out.store(a, 8);
          budget -= std::min<std::uint64_t>(budget, 2);
        } else {
          out.load(small_tbl + rng.below(512) * 8, 8);
          --budget;
        }
      }
    }
    return mt;
  }
};

/// NAS FT: 3D FFT. The memory-dominant phase is the all-to-all transpose,
/// and each pencil copy is a parallel loop: the cores stripe line-sized
/// chunks of the source and destination pencils cyclically, so the
/// aggregated miss stream is almost perfectly sequential. Best coalescing
/// case in the paper (75.52% efficiency, 25.43% speedup).
class FtWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.26; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kPencilElems = 1024;  // 16 KB pencils
    constexpr std::uint64_t kChunkElems = 4;      // one line of 16 B complex
    const Addr src = shared_base(p);
    const Addr dst = src + (64ULL << 20);
    const std::uint64_t pencils_total = (64ULL << 20) / (kPencilElems * 16);
    const std::uint64_t accesses = p.accesses_per_core * 3 / 2;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      std::uint64_t budget = accesses;
      std::uint64_t round = 0;
      while (budget > 0) {
        const std::uint64_t pencil = round % pencils_total;
        const std::uint64_t dpencil =
            (pencil * 2654435761ULL) % pencils_total;
        const Addr sbase = src + pencil * kPencilElems * 16;
        const Addr dbase = dst + dpencil * kPencilElems * 16;
        const std::uint64_t chunks = kPencilElems / kChunkElems;
        // Cooperative copy: read phase then write phase, cyclic chunks.
        for (std::uint64_t ch = core; ch < chunks && budget > 0;
             ch += p.num_cores) {
          for (std::uint64_t e = ch * kChunkElems;
               e < (ch + 1) * kChunkElems && budget > 0; ++e, --budget) {
            out.load(sbase + e * 16, 16);
          }
        }
        out.barrier();
        for (std::uint64_t ch = core; ch < chunks && budget > 0;
             ch += p.num_cores) {
          for (std::uint64_t e = ch * kChunkElems;
               e < (ch + 1) * kChunkElems && budget > 0; ++e, --budget) {
            out.store(dbase + e * 16, 16);
          }
        }
        out.barrier();
        ++round;
      }
    }
    return mt;
  }
};

/// NAS IS: integer bucket sort. Alternates a key-scatter phase (sequential
/// 4 B key reads feeding skewed-random 8 B bucket RMWs) with a cooperative
/// rank/prefix phase that streams the shared bucket array sequentially in
/// cyclic line chunks — the mix that gives IS its moderate coalescing.
class IsWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.55; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kBucketElems = (40ULL << 20) / 8;
    constexpr std::uint64_t kChunkKeys = 16;  // one 64 B line of 4 B keys
    constexpr std::uint64_t kChunkElems = 8;
    const Addr keys = shared_base(p);
    const Addr buckets = keys + (32ULL << 20);
    const std::uint64_t budget_per_core = p.accesses_per_core;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Xoshiro256 rng(p.seed * 28657 + core);
      Emitter out(mt.per_core[core]);
      std::uint64_t budget = budget_per_core;
      std::uint64_t key_chunk = core;
      std::uint64_t rank_chunk = core;
      while (budget > 0) {
        // Scatter phase: ~3 accesses per key, one key line per chunk.
        for (std::uint64_t kk = 0; kk < 4 && budget > 0; ++kk) {
          for (std::uint64_t e = 0; e < kChunkKeys && budget > 0; ++e) {
            out.load(keys + (key_chunk * kChunkKeys + e) * 4, 4);
            --budget;
            if (budget == 0) break;
            const Addr b = buckets + skewed_index(rng, kBucketElems) * 8;
            out.load(b, 8);
            --budget;
            if (budget == 0) break;
            out.store(b, 8);
            --budget;
          }
          key_chunk += p.num_cores;
        }
        out.barrier();
        // Rank phase: cooperative sequential sweep over the bucket array.
        for (std::uint64_t rk = 0; rk < 128 && budget > 0; ++rk) {
          for (std::uint64_t e = 0; e < kChunkElems && budget > 0; ++e) {
            const Addr b =
                buckets + ((rank_chunk * kChunkElems + e) % kBucketElems) * 8;
            out.load(b, 8);
            --budget;
            if (budget == 0) break;
            out.store(b, 8);
            --budget;
          }
          rank_chunk += p.num_cores;
        }
        out.barrier();
      }
    }
    return mt;
  }
};

/// NAS LU: SSOR sweeps over a shared dense 3D grid. Each row sweep is a
/// parallel loop: cores stripe line-sized chunks cyclically and each chunk
/// also reads the matching element of the NEXT row (the stencil halo), so
/// neighbouring cores concurrently miss the same lines — exercising both
/// coalescing phases. Largest trace of the suite together with SP.
class LuWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.22; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kRowElems = 8192;  // 64 KB rows
    constexpr std::uint64_t kChunkElems = 8;
    const Addr grid = shared_base(p);
    const std::uint64_t rows_total = (64ULL << 20) / (kRowElems * 8);
    const std::uint64_t accesses = p.accesses_per_core * 6;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      std::uint64_t budget = accesses;
      std::uint64_t row = 0;
      while (budget > 0) {
        const Addr rbase = grid + (row % rows_total) * kRowElems * 8;
        const std::uint64_t chunks = kRowElems / kChunkElems;
        for (std::uint64_t ch = core; ch < chunks && budget > 0;
             ch += p.num_cores) {
          for (std::uint64_t e = ch * kChunkElems;
               e < (ch + 1) * kChunkElems && budget > 0; ++e) {
            out.load(rbase + e * 8, 8);
            --budget;
            if (e % 4 == 3 && budget > 0) {
              out.store(rbase + e * 8, 8);
              --budget;
            }
          }
          if (budget > 0 && (ch / p.num_cores) % 4 == 0) {
            // Stencil halo: read the first element of the neighbouring
            // chunk, which core c+1 is sweeping concurrently — a genuine
            // same-line outstanding miss for the MSHR merge path.
            const std::uint64_t nch = ((ch + 1) % chunks) * kChunkElems;
            out.load(rbase + nch * 8, 8);
            --budget;
          }
        }
        out.barrier();
        ++row;
      }
    }
    return mt;
  }
};

/// NAS SP: scalar penta-diagonal solver; x/y/z line sweeps across a shared
/// 3D grid, each sweep a parallel loop. The x sweep is unit-stride across
/// cyclic chunks (coalescable); y/z sweeps are plane-strided (every access
/// a fresh faraway line). SP's trace is the biggest of the suite (largest
/// Figure 11 saving).
class SpWorkload final : public Workload {
 public:
  double memory_phase_fraction() const override { return 0.30; }
  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = make_streams(p);
    constexpr std::uint64_t kNx = 256;
    constexpr std::uint64_t kNy = 64;
    constexpr std::uint64_t kChunkElems = 8;
    const Addr grid = shared_base(p);
    const std::uint64_t elems = (96ULL << 20) / 8;
    const std::uint64_t accesses = p.accesses_per_core * 5;
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      Emitter out(mt.per_core[core]);
      std::uint64_t budget = accesses;
      std::uint64_t sweep = 0;
      std::uint64_t region = 0;
      while (budget > 0) {
        const int dir = static_cast<int>(sweep % 4);  // x,y,x,z
        // Each sweep processes a slab starting at a deterministic shared
        // offset (the solver walks the grid plane by plane).
        const std::uint64_t start =
            (region * kNx * kNy * 16) % (elems - kNx * kNy * 8);
        if (dir % 2 == 0) {
          // x sweep: cores take line chunks of a contiguous slab.
          const std::uint64_t slab = 2048;  // elements per parallel sweep
          const std::uint64_t chunks = slab / kChunkElems;
          for (std::uint64_t ch = core; ch < chunks && budget > 0;
               ch += p.num_cores) {
            for (std::uint64_t e = ch * kChunkElems;
                 e < (ch + 1) * kChunkElems && budget > 0; ++e) {
              const Addr a = grid + (start + e) * 8;
              out.load(a, 8);
              --budget;
              if (budget > 0) {
                out.store(a, 8);
                --budget;
              }
            }
          }
        } else {
          // y/z sweep: plane-strided accesses, one faraway line each.
          const std::uint64_t stride = dir == 1 ? kNx : kNx * kNy;
          for (std::uint64_t e = core; e < 128 && budget > 0;
               e += p.num_cores) {
            const Addr a = grid + (start + e * stride) * 8;
            out.load(a, 8);
            --budget;
            if (budget > 0) {
              out.store(a, 8);
              --budget;
            }
          }
        }
        out.barrier();
        ++sweep;
        ++region;
      }
    }
    return mt;
  }
};

}  // namespace

std::unique_ptr<Workload> make_ep() { return std::make_unique<EpWorkload>(); }
std::unique_ptr<Workload> make_ft() { return std::make_unique<FtWorkload>(); }
std::unique_ptr<Workload> make_is() { return std::make_unique<IsWorkload>(); }
std::unique_ptr<Workload> make_lu() { return std::make_unique<LuWorkload>(); }
std::unique_ptr<Workload> make_sp() { return std::make_unique<SpWorkload>(); }

}  // namespace hmcc::workloads::detail
