// SIMT warp front-end implementation: scheduler, intra-warp merge, and the
// three warp workloads (gather/update, unit-stride SAXPY, pointer chase).
#include "workloads/warp.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <utility>

#include "workloads/generators.hpp"

namespace hmcc::workloads {

std::vector<WarpRun> coalesce_warp_vector(const std::vector<Addr>& lane_addrs,
                                          std::uint32_t access_bytes) {
  const std::uint32_t bytes = std::max<std::uint32_t>(access_bytes, 1);
  std::vector<Addr> lines;
  lines.reserve(lane_addrs.size());
  for (const Addr a : lane_addrs) {
    const Addr first = a / kWarpLineBytes;
    const Addr last = (a + (bytes - 1)) / kWarpLineBytes;
    for (Addr l = first; l <= last; ++l) lines.push_back(l);
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::vector<WarpRun> runs;
  for (std::size_t i = 0; i < lines.size();) {
    std::size_t j = i + 1;
    while (j < lines.size() && lines[j] == lines[j - 1] + 1) ++j;
    runs.push_back({lines[i] * kWarpLineBytes,
                    static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return runs;
}

namespace {

using trace::MultiTrace;

/// One vector memory instruction as produced by a lane pattern.
struct VectorOp {
  std::vector<Addr> addrs;         ///< one address per lane
  std::uint32_t access_bytes = 8;  ///< per-lane access size
  bool is_store = false;
};

/// A warp's next instruction: the ops it issues this slot (e.g. a gather
/// RMW is a load vector plus a store vector to the same addresses).
using WarpInstFn =
    std::function<std::vector<VectorOp>(std::uint32_t warp, std::uint64_t inst,
                                        Xoshiro256& rng)>;

/// Builds the per-core instruction closure (captures per-warp state such as
/// pointer-chase cursors, seeded deterministically from (seed, core)).
using InstFnFactory =
    std::function<WarpInstFn(const WorkloadParams& p, std::uint32_t core)>;

// Virtual-cycle memory latency: base DRAM round trip plus one burst slot per
// contiguous run the merge produced (the coalescing-unit cost model — a
// divergent warp pays warp_width burst slots, a converged one pays few),
// plus bounded per-request jitter standing in for bank conflicts and NoC
// contention. The jitter is what lets max_outstanding_warps matter: with
// uniform latencies every schedule degenerates to strict round-robin.
// These only shape the emitted interleave, never downstream timing.
constexpr std::uint64_t kMemBaseLatency = 200;
constexpr std::uint64_t kPerBurstLatency = 8;
constexpr std::uint64_t kLatencyJitter = 64;

/// The generation-time SIMT scheduler for one core. Round-robin over ready
/// warps; an issuing warp charges ceil(warp_width/lanes) issue beats, emits
/// its merged runs, then suspends until its virtual memory latency expires.
/// At most max_outstanding_warps warps wait at once; when the bound binds
/// (or every warp waits) the clock jumps to the earliest resume. Budget
/// counts emitted records (post-merge), matching accesses_per_core.
void run_warp_core(const WarpParams& w, std::uint64_t budget,
                   detail::Emitter& out, const WarpInstFn& inst,
                   Xoshiro256& rng) {
  const std::uint32_t nwarps = std::max(1u, w.warps);
  const std::uint32_t width = std::max(1u, w.warp_width);
  const std::uint32_t lanes = std::max(1u, w.lanes);
  const std::uint32_t mlp = std::max(1u, w.max_outstanding_warps);
  const std::uint64_t issue_beats = (width + lanes - 1) / lanes;

  std::vector<std::uint64_t> resume(nwarps, 0);
  std::vector<char> waiting(nwarps, 0);
  std::vector<std::uint64_t> inst_idx(nwarps, 0);
  std::uint32_t outstanding = 0;
  std::uint32_t rr = 0;
  std::uint64_t cycle = 0;

  while (budget > 0) {
    for (std::uint32_t i = 0; i < nwarps; ++i) {
      if (waiting[i] && resume[i] <= cycle) {
        waiting[i] = 0;
        --outstanding;
      }
    }
    std::int64_t pick = -1;
    if (outstanding < mlp) {
      for (std::uint32_t k = 0; k < nwarps; ++k) {
        const std::uint32_t i = (rr + k) % nwarps;
        if (!waiting[i]) {
          pick = i;
          break;
        }
      }
    }
    if (pick < 0) {
      // MLP-bound or all warps in flight: advance to the earliest resume.
      std::uint64_t next = ~0ULL;
      for (std::uint32_t i = 0; i < nwarps; ++i) {
        if (waiting[i]) next = std::min(next, resume[i]);
      }
      cycle = next;
      continue;
    }
    const auto wsel = static_cast<std::uint32_t>(pick);
    rr = (wsel + 1) % nwarps;
    const std::vector<VectorOp> ops = inst(wsel, inst_idx[wsel]++, rng);
    std::uint64_t bursts = 0;
    for (const VectorOp& op : ops) {
      const std::vector<WarpRun> runs =
          coalesce_warp_vector(op.addrs, op.access_bytes);
      bursts += runs.size();
      for (const WarpRun& r : runs) {
        if (budget == 0) break;
        const std::uint32_t bytes = r.lines * kWarpLineBytes;
        if (op.is_store) {
          out.store(r.addr, bytes);
        } else {
          out.load(r.addr, bytes);
        }
        --budget;
      }
      if (budget == 0) break;
    }
    cycle += issue_beats * std::max<std::uint64_t>(ops.size(), 1);
    resume[wsel] = cycle + kMemBaseLatency + bursts * kPerBurstLatency +
                   rng.below(kLatencyJitter);
    waiting[wsel] = 1;
    ++outstanding;
  }
}

class WarpWorkload final : public Workload {
 public:
  explicit WarpWorkload(InstFnFactory fn) : factory_(std::move(fn)) {}

  MultiTrace generate(const WorkloadParams& p) const override {
    MultiTrace mt = detail::make_streams(p);
    for (std::uint32_t core = 0; core < p.num_cores; ++core) {
      detail::Emitter out(mt.per_core[core]);
      out.reserve(p.accesses_per_core);
      Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ULL + core + 1);
      const WarpInstFn inst = factory_(p, core);
      run_warp_core(p.warp, p.accesses_per_core, out, inst, rng);
    }
    return mt;
  }

 private:
  InstFnFactory factory_;
};

}  // namespace

namespace detail {

/// GUPS-style gather/update: every lane reads then writes a random 8 B slot
/// of a SHARED 256 MB table (a vector RMW). Lanes land in unrelated lines,
/// so the intra-warp merge rarely collapses anything — the divergent worst
/// case — but all cores gather from the same table, so cross-core same-line
/// merging downstream (the conventional-MSHR case) still fires.
std::unique_ptr<Workload> make_warp_gups() {
  return std::make_unique<WarpWorkload>(
      [](const WorkloadParams& p, std::uint32_t /*core*/) -> WarpInstFn {
        const Addr table = shared_base(p);
        const std::uint64_t elems = (256ULL << 20) / 8;
        const std::uint32_t width = std::max(1u, p.warp.warp_width);
        return [table, elems, width](std::uint32_t /*warp*/,
                                     std::uint64_t /*inst*/, Xoshiro256& rng) {
          VectorOp load;
          load.addrs.reserve(width);
          for (std::uint32_t l = 0; l < width; ++l) {
            load.addrs.push_back(table + rng.below(elems) * 8);
          }
          VectorOp store = load;  // RMW: write the gathered slots back
          store.is_store = true;
          std::vector<VectorOp> ops;
          ops.push_back(std::move(load));
          ops.push_back(std::move(store));
          return ops;
        };
      });
}

/// Unit-stride SAXPY y[i] = a*x[i] + y[i] over shared arrays, warps taking
/// consecutive width-sized blocks cyclically across (core, warp). Every
/// vector converges: the merge collapses each instruction to a handful of
/// contiguous runs — the fully-coalescible best case, and the sharpest
/// contrast to warp_gups in the ablation.
std::unique_ptr<Workload> make_warp_saxpy() {
  return std::make_unique<WarpWorkload>(
      [](const WorkloadParams& p, std::uint32_t core) -> WarpInstFn {
        const Addr x = shared_base(p);
        const Addr y = x + (512ULL << 20);
        const std::uint32_t width = std::max(1u, p.warp.warp_width);
        const std::uint64_t nwarps = std::max(1u, p.warp.warps);
        const std::uint64_t ncores = std::max(1u, p.num_cores);
        const std::uint64_t span = (1ULL << 29) / 8;  // stay in-segment
        // Seed-derived grid phase: where in the arrays this launch starts.
        // Keeps the kernel purely strided while honoring "deterministic in
        // (seed, params)" with seed actually participating.
        const std::uint64_t phase = (p.seed * 0x9E3779B97F4A7C15ULL) % span;
        return [=](std::uint32_t warp, std::uint64_t inst, Xoshiro256&) {
          const std::uint64_t block = (inst * ncores + core) * nwarps + warp;
          const std::uint64_t base = (block * width + phase) % span;
          VectorOp lx, ly;
          lx.addrs.reserve(width);
          ly.addrs.reserve(width);
          for (std::uint32_t l = 0; l < width; ++l) {
            const std::uint64_t i = (base + l) % span;
            lx.addrs.push_back(x + i * 8);
            ly.addrs.push_back(y + i * 8);
          }
          VectorOp sy = ly;
          sy.is_store = true;
          std::vector<VectorOp> ops;
          ops.push_back(std::move(lx));
          ops.push_back(std::move(ly));
          ops.push_back(std::move(sy));
          return ops;
        };
      });
}

/// Per-lane pointer chase over a private 64 MB node pool: each lane follows
/// its own chain (an LCG permutation walk), so lanes stay divergent forever
/// AND dependent — the latency-bound case where max_outstanding_warps is
/// the knob that matters.
std::unique_ptr<Workload> make_warp_chase() {
  return std::make_unique<WarpWorkload>(
      [](const WorkloadParams& p, std::uint32_t core) -> WarpInstFn {
        const Addr pool = core_base(p, core);
        const std::uint64_t nodes = (64ULL << 20) / kWarpLineBytes;
        const std::uint32_t width = std::max(1u, p.warp.warp_width);
        const std::uint32_t nwarps = std::max(1u, p.warp.warps);
        auto cursors = std::make_shared<std::vector<std::uint64_t>>(
            std::size_t{nwarps} * width);
        Xoshiro256 seed_rng(p.seed * 0x2545F4914F6CDD1DULL + core);
        for (std::uint64_t& c : *cursors) c = seed_rng.below(nodes);
        return [pool, nodes, width, cursors](std::uint32_t warp,
                                             std::uint64_t /*inst*/,
                                             Xoshiro256&) {
          VectorOp load;
          load.addrs.reserve(width);
          for (std::uint32_t l = 0; l < width; ++l) {
            std::uint64_t& cur = (*cursors)[std::size_t{warp} * width + l];
            load.addrs.push_back(pool + cur * kWarpLineBytes + (l % 8) * 8);
            cur = (cur * 6364136223846793005ULL + 1442695040888963407ULL) %
                  nodes;
          }
          std::vector<VectorOp> ops;
          ops.push_back(std::move(load));
          return ops;
        };
      });
}

}  // namespace detail

const std::vector<desc::Knob<WarpParams>>& warp_knobs() {
  static const std::vector<desc::Knob<WarpParams>> table = [] {
    using desc::uint_knob;
    std::vector<desc::Knob<WarpParams>> t;
    t.push_back(uint_knob<WarpParams>(
        "warps", "bench", "resident warps per core in the warp_* workloads",
        1, 1024,
        [](const WarpParams& w) { return std::uint64_t{w.warps}; },
        [](WarpParams& w, std::uint64_t v) {
          w.warps = static_cast<std::uint32_t>(v);
        }));
    t.push_back(uint_knob<WarpParams>(
        "warp_width", "bench", "threads per warp (lane-vector length)",
        1, 4096,
        [](const WarpParams& w) { return std::uint64_t{w.warp_width}; },
        [](WarpParams& w, std::uint64_t v) {
          w.warp_width = static_cast<std::uint32_t>(v);
        }));
    t.push_back(uint_knob<WarpParams>(
        "lanes", "bench",
        "SIMD issue width; a vector op takes ceil(warp_width/lanes) beats",
        1, 4096,
        [](const WarpParams& w) { return std::uint64_t{w.lanes}; },
        [](WarpParams& w, std::uint64_t v) {
          w.lanes = static_cast<std::uint32_t>(v);
        }));
    t.push_back(uint_knob<WarpParams>(
        "max_outstanding_warps", "bench",
        "warps concurrently suspended on memory (per-core MLP bound)",
        1, 1024,
        [](const WarpParams& w) {
          return std::uint64_t{w.max_outstanding_warps};
        },
        [](WarpParams& w, std::uint64_t v) {
          w.max_outstanding_warps = static_cast<std::uint32_t>(v);
        }));
    const WarpParams defaults;
    t[0].meta.default_value = std::to_string(defaults.warps);
    t[1].meta.default_value = std::to_string(defaults.warp_width);
    t[2].meta.default_value = std::to_string(defaults.lanes);
    t[3].meta.default_value = std::to_string(defaults.max_outstanding_warps);
    return t;
  }();
  return table;
}

WarpParams warp_params_from_cli(const Config& cli) {
  WarpParams w;
  for (const desc::Knob<WarpParams>& k : warp_knobs()) {
    if (!cli.has(k.meta.key)) continue;
    const std::string err = k.apply(w, cli.get_string(k.meta.key, ""));
    if (!err.empty()) {
      throw std::invalid_argument(k.meta.key + ": " + err);
    }
  }
  return w;
}

}  // namespace hmcc::workloads
