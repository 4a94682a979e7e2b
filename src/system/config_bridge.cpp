#include "system/config_bridge.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bits.hpp"
#include "system/runner.hpp"

namespace hmcc::system {
namespace {

using desc::Knob;

// Table-entry shorthands: every platform knob shares scope "platform".
Knob<SystemConfig> u(const char* key, const char* help, std::uint64_t min,
                     std::uint64_t max,
                     std::function<std::uint64_t(const SystemConfig&)> get,
                     std::function<void(SystemConfig&, std::uint64_t)> set) {
  return desc::uint_knob<SystemConfig>(key, "platform", help, min, max,
                                       std::move(get), std::move(set));
}

Knob<SystemConfig> b(const char* key, const char* help,
                     std::function<bool(const SystemConfig&)> get,
                     std::function<void(SystemConfig&, bool)> set) {
  return desc::bool_knob<SystemConfig>(key, "platform", help, std::move(get),
                                       std::move(set));
}

std::vector<Knob<SystemConfig>> build_platform_knobs() {
  constexpr std::uint64_t kCycleMax = 1'000'000;
  std::vector<Knob<SystemConfig>> t;

  // Cores / front end.
  t.push_back(u("cores", "CPU cores", 1, 4096,
                [](const SystemConfig& c) { return c.hierarchy.num_cores; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hierarchy.num_cores = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("llc_mshrs", "LLC MSHR entries", 1, 65536,
                [](const SystemConfig& c) { return c.hierarchy.llc_mshrs; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hierarchy.llc_mshrs = static_cast<std::uint32_t>(v);
                }));
  t.push_back(
      u("mlp", "max outstanding misses per core", 1, 65536,
        [](const SystemConfig& c) { return c.core.max_outstanding_misses; },
        [](SystemConfig& c, std::uint64_t v) {
          c.core.max_outstanding_misses = static_cast<std::uint32_t>(v);
        }));
  t.push_back(u("issue_interval", "cycles between issues", 0, kCycleMax,
                [](const SystemConfig& c) { return c.core.issue_interval; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.core.issue_interval = v;
                }));

  // Caches. Sizes are spelled in KiB on the CLI.
  t.push_back(
      u("l1_kb", "L1 size (KiB)", 1, 1u << 20,
        [](const SystemConfig& c) { return c.hierarchy.l1.size_bytes >> 10; },
        [](SystemConfig& c, std::uint64_t v) {
          c.hierarchy.l1.size_bytes = v << 10;
        }));
  t.push_back(u("l1_ways", "L1 associativity", 1, 1024,
                [](const SystemConfig& c) { return c.hierarchy.l1.ways; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hierarchy.l1.ways = static_cast<std::uint32_t>(v);
                }));
  t.push_back(
      u("l2_kb", "L2 size (KiB)", 1, 1u << 20,
        [](const SystemConfig& c) { return c.hierarchy.l2.size_bytes >> 10; },
        [](SystemConfig& c, std::uint64_t v) {
          c.hierarchy.l2.size_bytes = v << 10;
        }));
  t.push_back(u("l2_ways", "L2 associativity", 1, 1024,
                [](const SystemConfig& c) { return c.hierarchy.l2.ways; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hierarchy.l2.ways = static_cast<std::uint32_t>(v);
                }));
  t.push_back(
      u("llc_kb", "LLC size (KiB)", 1, 1u << 20,
        [](const SystemConfig& c) { return c.hierarchy.llc.size_bytes >> 10; },
        [](SystemConfig& c, std::uint64_t v) {
          c.hierarchy.llc.size_bytes = v << 10;
        }));
  t.push_back(u("llc_ways", "LLC associativity", 1, 1024,
                [](const SystemConfig& c) { return c.hierarchy.llc.ways; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hierarchy.llc.ways = static_cast<std::uint32_t>(v);
                }));
  // One knob fans to every level plus the coalescer: the paper platform
  // keeps a single line size end to end.
  t.push_back(u("line_bytes", "cache line bytes", 8, 4096,
                [](const SystemConfig& c) { return c.coalescer.line_bytes; },
                [](SystemConfig& c, std::uint64_t v) {
                  const auto line = static_cast<std::uint32_t>(v);
                  c.hierarchy.l1.line_bytes = line;
                  c.hierarchy.l2.line_bytes = line;
                  c.hierarchy.llc.line_bytes = line;
                  c.coalescer.line_bytes = line;
                }));

  // Coalescer.
  t.push_back(u("window", "coalescing window n (power of two)", 2, 1024,
                [](const SystemConfig& c) { return c.coalescer.window; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.coalescer.window = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("tau", "coalescing threshold tau", 0, kCycleMax,
                [](const SystemConfig& c) { return c.coalescer.tau; },
                [](SystemConfig& c, std::uint64_t v) { c.coalescer.tau = v; }));
  t.push_back(
      u("timeout", "coalescer timeout (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.coalescer.timeout; },
        [](SystemConfig& c, std::uint64_t v) { c.coalescer.timeout = v; }));
  t.push_back(u("max_subentries", "dynamic MSHR subentries", 1, 65536,
                [](const SystemConfig& c) { return c.coalescer.max_subentries; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.coalescer.max_subentries = static_cast<std::uint32_t>(v);
                }));
  t.push_back(desc::enum_knob<SystemConfig>(
      "pipeline", "platform", "pipeline shape: stage|step", {"stage", "step"},
      [](const SystemConfig& c) {
        return std::string(c.coalescer.pipeline_shape ==
                                   coalescer::PipelineShape::kPerStage
                               ? "stage"
                               : "step");
      },
      [](SystemConfig& c, const std::string& v) {
        c.coalescer.pipeline_shape = v == "stage"
                                         ? coalescer::PipelineShape::kPerStage
                                         : coalescer::PipelineShape::kPerStep;
      }));

  // HMC.
  t.push_back(
      u("hmc_gb", "HMC capacity (GiB)", 1, 1024,
        [](const SystemConfig& c) { return c.hmc.capacity_bytes >> 30; },
        [](SystemConfig& c, std::uint64_t v) {
          c.hmc.capacity_bytes = v << 30;
        }));
  t.push_back(u("vaults", "HMC vaults (power of two)", 1, 1024,
                [](const SystemConfig& c) { return c.hmc.num_vaults; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hmc.num_vaults = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("banks", "banks per vault", 1, 1024,
                [](const SystemConfig& c) { return c.hmc.banks_per_vault; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hmc.banks_per_vault = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("links", "HMC links", 1, 64,
                [](const SystemConfig& c) { return c.hmc.num_links; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hmc.num_links = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("block_bytes", "HMC block addressing bytes", 32, 4096,
                [](const SystemConfig& c) { return c.hmc.block_bytes; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hmc.block_bytes = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("max_packet", "max packet payload bytes", 32, 4096,
                [](const SystemConfig& c) { return c.coalescer.max_packet_bytes; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.coalescer.max_packet_bytes = static_cast<std::uint32_t>(v);
                }));
  t.push_back(b("closed_page", "closed-page policy",
                [](const SystemConfig& c) { return c.hmc.closed_page; },
                [](SystemConfig& c, bool v) { c.hmc.closed_page = v; }));
  t.push_back(u("t_rcd", "DRAM tRCD (cycles)", 0, kCycleMax,
                [](const SystemConfig& c) { return c.hmc.t_rcd; },
                [](SystemConfig& c, std::uint64_t v) { c.hmc.t_rcd = v; }));
  t.push_back(u("t_cl", "DRAM tCL (cycles)", 0, kCycleMax,
                [](const SystemConfig& c) { return c.hmc.t_cl; },
                [](SystemConfig& c, std::uint64_t v) { c.hmc.t_cl = v; }));
  t.push_back(u("t_rp", "DRAM tRP (cycles)", 0, kCycleMax,
                [](const SystemConfig& c) { return c.hmc.t_rp; },
                [](SystemConfig& c, std::uint64_t v) { c.hmc.t_rp = v; }));
  t.push_back(u("t_ras", "DRAM tRAS (cycles)", 0, kCycleMax,
                [](const SystemConfig& c) { return c.hmc.t_ras; },
                [](SystemConfig& c, std::uint64_t v) { c.hmc.t_ras = v; }));
  t.push_back(
      u("serdes", "SerDes latency (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.hmc.serdes_latency; },
        [](SystemConfig& c, std::uint64_t v) { c.hmc.serdes_latency = v; }));
  t.push_back(
      u("xbar", "crossbar latency (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.hmc.xbar_latency; },
        [](SystemConfig& c, std::uint64_t v) { c.hmc.xbar_latency = v; }));
  t.push_back(
      u("cycles_per_flit", "link cycles per FLIT", 0, kCycleMax,
        [](const SystemConfig& c) { return c.hmc.cycles_per_flit; },
        [](SystemConfig& c, std::uint64_t v) { c.hmc.cycles_per_flit = v; }));

  // Vault scheduling and intra-cube NoC. The defaults (sched=fcfs, noc=off)
  // are byte-identical to the historical immediate-service controller and
  // flat crossbar; CI's byte-identity gate pins that.
  t.push_back(desc::enum_knob<SystemConfig>(
      "sched", "platform", "vault scheduling policy: fcfs|frfcfs|batch",
      {"fcfs", "frfcfs", "batch"},
      [](const SystemConfig& c) {
        return std::string(hmc::to_string(c.hmc.sched));
      },
      [](SystemConfig& c, const std::string& v) {
        if (v == "frfcfs") {
          c.hmc.sched = hmc::SchedPolicy::kFrfcfs;
        } else if (v == "batch") {
          c.hmc.sched = hmc::SchedPolicy::kBatch;
        } else {
          c.hmc.sched = hmc::SchedPolicy::kFcfs;
        }
      }));
  t.push_back(u("vault_queue", "per-vault scheduler queue depth", 1, 4096,
                [](const SystemConfig& c) { return c.hmc.vault_queue_depth; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.hmc.vault_queue_depth = static_cast<std::uint32_t>(v);
                }));
  t.push_back(
      u("starve_cap", "FR-FCFS starvation cap (bypasses before forced serve)",
        1, 1u << 20,
        [](const SystemConfig& c) { return c.hmc.sched_starve_cap; },
        [](SystemConfig& c, std::uint64_t v) {
          c.hmc.sched_starve_cap = static_cast<std::uint32_t>(v);
        }));
  t.push_back(desc::enum_knob<SystemConfig>(
      "noc", "platform", "intra-HMC network model: off|quadrant",
      {"off", "quadrant"},
      [](const SystemConfig& c) {
        return std::string(hmc::to_string(c.hmc.noc));
      },
      [](SystemConfig& c, const std::string& v) {
        c.hmc.noc =
            v == "quadrant" ? hmc::NocModel::kQuadrant : hmc::NocModel::kOff;
      }));
  t.push_back(
      u("noc_hop", "NoC latency per quadrant hop (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.hmc.noc_hop_latency; },
        [](SystemConfig& c, std::uint64_t v) { c.hmc.noc_hop_latency = v; }));

  // Datapath mode.
  t.push_back(desc::enum_knob<SystemConfig>(
      "mode", "platform", "datapath: none|conventional|dmc-only|coalescer",
      {"none", "conventional", "dmc-only", "coalescer"},
      [](const SystemConfig& c) { return std::string(to_string(c.mode)); },
      [](SystemConfig& c, const std::string& v) {
        if (v == "none") {
          c.mode = CoalescerMode::kNone;
        } else if (v == "conventional") {
          c.mode = CoalescerMode::kConventional;
        } else if (v == "dmc-only") {
          c.mode = CoalescerMode::kDmcOnly;
        } else {
          c.mode = CoalescerMode::kFull;
        }
      }));

  // Observability (defaults off: no registry, no trace, byte-identical
  // output to an uninstrumented run).
  t.push_back(b("metrics", "build per-System metrics registry",
                [](const SystemConfig& c) { return c.obs.metrics; },
                [](SystemConfig& c, bool v) { c.obs.metrics = v; }));
  t.push_back(desc::string_knob<SystemConfig>(
      "trace_json", "platform", "chrome://tracing output path (\"\" disables)",
      [](const SystemConfig& c) { return c.obs.trace_json; },
      [](SystemConfig& c, std::string v) { c.obs.trace_json = std::move(v); }));
  t.push_back(
      u("trace_events", "trace event buffer cap", 1, 1ULL << 32,
        [](const SystemConfig& c) { return c.obs.trace_max_events; },
        [](SystemConfig& c, std::uint64_t v) { c.obs.trace_max_events = v; }));
  t.push_back(
      u("sample_interval", "mid-run stat sampling period in cycles (0 = off)",
        0, 1ULL << 40,
        [](const SystemConfig& c) { return c.obs.sample_interval; },
        [](SystemConfig& c, std::uint64_t v) { c.obs.sample_interval = v; }));

  // Memory backend (src/mem). The default, mem=hmc, is the bare cube and
  // byte-identical to the pre-seam simulator; mem=hybrid composes it with
  // the flat capacity tier behind the hot-page tag table (scheme= picks the
  // policy). fast_pages=0 leaves the hybrid fast tier unbounded — the
  // degenerate point CI's byte-identity gate runs.
  t.push_back(desc::enum_knob<SystemConfig>(
      "mem", "platform", "memory backend: hmc|hybrid", {"hmc", "hybrid"},
      [](const SystemConfig& c) {
        return std::string(mem::to_string(c.mem.backend));
      },
      [](SystemConfig& c, const std::string& v) {
        c.mem.backend = v == "hybrid" ? mem::BackendKind::kHybrid
                                      : mem::BackendKind::kHmc;
      }));
  t.push_back(desc::enum_knob<SystemConfig>(
      "scheme", "platform", "hybrid tiering policy: cache|migrate|static",
      {"cache", "migrate", "static"},
      [](const SystemConfig& c) {
        return std::string(mem::to_string(c.mem.scheme));
      },
      [](SystemConfig& c, const std::string& v) {
        if (v == "migrate") {
          c.mem.scheme = mem::HybridScheme::kMigrate;
        } else if (v == "static") {
          c.mem.scheme = mem::HybridScheme::kStatic;
        } else {
          c.mem.scheme = mem::HybridScheme::kCache;
        }
      }));
  t.push_back(u("page_bytes", "tiering page size (power of two)", 64, 1u << 20,
                [](const SystemConfig& c) { return c.mem.page_bytes; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.mem.page_bytes = static_cast<std::uint32_t>(v);
                }));
  t.push_back(
      u("fast_pages", "hybrid fast-tier capacity in pages (0 = unbounded)", 0,
        1ULL << 32,
        [](const SystemConfig& c) { return c.mem.fast_pages; },
        [](SystemConfig& c, std::uint64_t v) { c.mem.fast_pages = v; }));
  t.push_back(u("tag_ways", "hot-page tag table associativity", 1, 1024,
                [](const SystemConfig& c) { return c.mem.tag_ways; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.mem.tag_ways = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("migrate_epoch", "migration epoch length (cycles)", 1,
                1ULL << 40,
                [](const SystemConfig& c) { return c.mem.migrate_epoch; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.mem.migrate_epoch = v;
                }));
  t.push_back(u("hot_threshold",
                "per-epoch accesses that make a slow page promotion-worthy",
                1, 1u << 20,
                [](const SystemConfig& c) { return c.mem.hot_threshold; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.mem.hot_threshold = static_cast<std::uint32_t>(v);
                }));
  t.push_back(u("slow_channels", "slow-tier channel count", 1, 64,
                [](const SystemConfig& c) { return c.mem.slow.num_channels; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.mem.slow.num_channels = static_cast<std::uint32_t>(v);
                }));
  t.push_back(
      u("slow_ctrl", "slow-tier controller latency (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.mem.slow.ctrl_latency; },
        [](SystemConfig& c, std::uint64_t v) { c.mem.slow.ctrl_latency = v; }));
  t.push_back(
      u("slow_t_rcd", "slow-tier tRCD (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.mem.slow.t_rcd; },
        [](SystemConfig& c, std::uint64_t v) { c.mem.slow.t_rcd = v; }));
  t.push_back(
      u("slow_t_cl", "slow-tier tCL (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.mem.slow.t_cl; },
        [](SystemConfig& c, std::uint64_t v) { c.mem.slow.t_cl = v; }));
  t.push_back(
      u("slow_t_rp", "slow-tier tRP (cycles)", 0, kCycleMax,
        [](const SystemConfig& c) { return c.mem.slow.t_rp; },
        [](SystemConfig& c, std::uint64_t v) { c.mem.slow.t_rp = v; }));
  t.push_back(
      u("slow_burst", "slow-tier cycles per 32 B column", 0, kCycleMax,
        [](const SystemConfig& c) { return c.mem.slow.t_column_burst; },
        [](SystemConfig& c, std::uint64_t v) {
          c.mem.slow.t_column_burst = v;
        }));
  t.push_back(u("slow_row_bytes", "slow-tier row size (power of two)", 64,
                1u << 20,
                [](const SystemConfig& c) { return c.mem.slow.row_bytes; },
                [](SystemConfig& c, std::uint64_t v) {
                  c.mem.slow.row_bytes = static_cast<std::uint32_t>(v);
                }));

  // Trace corpus record/replay (src/trace/codec.hpp). Defaults off.
  t.push_back(desc::string_knob<SystemConfig>(
      "trace_record", "platform",
      "capture the generated trace to this .hmct path (\"\" disables)",
      [](const SystemConfig& c) { return c.trace_io.record_path; },
      [](SystemConfig& c, std::string v) {
        c.trace_io.record_path = std::move(v);
      }));
  t.push_back(desc::string_knob<SystemConfig>(
      "trace_replay", "platform",
      "replay this .hmct trace instead of running the generator",
      [](const SystemConfig& c) { return c.trace_io.replay_path; },
      [](SystemConfig& c, std::string v) {
        c.trace_io.replay_path = std::move(v);
      }));

  // Fill each knob's canonical default from the paper platform: the same
  // read() that round-trips a live config also documents the default.
  const SystemConfig defaults = paper_system_config();
  for (Knob<SystemConfig>& k : t) k.meta.default_value = k.read(defaults);
  return t;
}

// Cross-knob structural invariants, checked after every knob has been
// applied (and after apply_mode() re-derives the flag set). Each entry files
// its error under the knob/component it belongs to; the per-entry strings
// are pinned by descriptor_test.
std::vector<desc::Constraint<SystemConfig>> build_platform_constraints() {
  using C = desc::Constraint<SystemConfig>;
  std::vector<C> t;
  t.push_back(C{"hmc", [](const SystemConfig& c) {
                  return c.hmc.valid()
                             ? std::string()
                             : "invalid geometry (capacity/vaults/banks/"
                               "block_bytes must be powers of two and "
                               "consistent)";
                }});
  t.push_back(C{"l1", [](const SystemConfig& c) {
                  return c.hierarchy.l1.valid()
                             ? std::string()
                             : "invalid geometry (size/ways/line_bytes)";
                }});
  t.push_back(C{"l2", [](const SystemConfig& c) {
                  return c.hierarchy.l2.valid()
                             ? std::string()
                             : "invalid geometry (size/ways/line_bytes)";
                }});
  t.push_back(C{"llc", [](const SystemConfig& c) {
                  return c.hierarchy.llc.valid()
                             ? std::string()
                             : "invalid geometry (size/ways/line_bytes)";
                }});
  t.push_back(C{"window", [](const SystemConfig& c) {
                  return is_pow2(c.coalescer.window)
                             ? std::string()
                             : "must be a power of two";
                }});
  // The CRQ is sized to the MSHR file; a window wider than the CRQ could
  // never drain one batch, so reject the combination up front.
  t.push_back(C{"window", [](const SystemConfig& c) {
                  return c.coalescer.window <= c.coalescer.num_mshrs
                             ? std::string()
                             : "must not exceed the CRQ capacity "
                               "(llc_mshrs = " +
                                   std::to_string(c.coalescer.num_mshrs) + ")";
                }});
  // Every packet must be one a cube command carries (16..256 B) and must
  // stay inside one block, or HmcBackend::submit / HmcDevice::submit would
  // abort. A miss always travels as at least one line; only the DMC unit
  // forms packets up to max_packet, so max_packet binds only when it runs.
  t.push_back(C{"line_bytes", [](const SystemConfig& c) {
                  const std::uint32_t line = c.coalescer.line_bytes;
                  return line >= hmcspec::kMinRequestBytes &&
                                 line <= hmcspec::kMaxRequestBytes
                             ? std::string()
                             : "must be within [16, 256]: no cube command "
                               "carries a line of " +
                                   std::to_string(line) + " B";
                }});
  t.push_back(C{"max_packet", [](const SystemConfig& c) {
                  return !c.coalescer.enable_dmc ||
                                 c.coalescer.max_packet_bytes <=
                                     hmcspec::kMaxRequestBytes
                             ? std::string()
                             : "must not exceed 256 while the DMC unit "
                               "forms packets: no cube command carries a "
                               "larger one";
                }});
  t.push_back(C{"block_bytes", [](const SystemConfig& c) {
                  const std::uint32_t packet =
                      c.coalescer.enable_dmc
                          ? std::max(c.coalescer.line_bytes,
                                     c.coalescer.max_packet_bytes)
                          : c.coalescer.line_bytes;
                  return packet <= c.hmc.block_bytes
                             ? std::string()
                             : "must be at least the largest packet (" +
                                   std::to_string(packet) +
                                   " B): a packet may not cross a block";
                }});
  t.push_back(C{"page_bytes", [](const SystemConfig& c) {
                  return is_pow2(c.mem.page_bytes) && c.mem.page_bytes >= 64
                             ? std::string()
                             : "must be a power of two >= 64";
                }});
  t.push_back(C{"fast_pages", [](const SystemConfig& c) {
                  if (c.mem.backend != mem::BackendKind::kHybrid ||
                      c.mem.fast_pages == 0) {
                    return std::string();
                  }
                  const bool ok =
                      c.mem.tag_ways != 0 &&
                      c.mem.fast_pages % c.mem.tag_ways == 0 &&
                      is_pow2(c.mem.fast_pages / c.mem.tag_ways);
                  return ok ? std::string()
                            : "must be tag_ways times a power of two "
                              "(tag_ways = " +
                                  std::to_string(c.mem.tag_ways) + ")";
                }});
  t.push_back(C{"slow_row_bytes", [](const SystemConfig& c) {
                  return c.mem.slow.valid()
                             ? std::string()
                             : "invalid slow-tier geometry "
                               "(channels/row_bytes)";
                }});
  return t;
}

}  // namespace

const std::vector<desc::Knob<SystemConfig>>& platform_knobs() {
  static const std::vector<Knob<SystemConfig>> table = build_platform_knobs();
  return table;
}

const std::vector<desc::Constraint<SystemConfig>>& platform_constraints() {
  static const std::vector<desc::Constraint<SystemConfig>> table =
      build_platform_constraints();
  return table;
}

bool overlay_config(const Config& cli, SystemConfig& cfg,
                    std::vector<std::string>& errors) {
  const std::size_t before = errors.size();
  desc::overlay(platform_knobs(), cli, cfg, errors);
  apply_mode(cfg, cfg.mode);
  desc::check_constraints(platform_constraints(), cfg, errors);
  return errors.size() == before;
}

SystemConfig config_from_cli(const Config& cli) {
  SystemConfig cfg = paper_system_config();
  std::vector<std::string> errors;
  if (!overlay_config(cli, cfg, errors)) {
    std::string msg = "invalid platform knobs:";
    for (const std::string& e : errors) {
      msg += "\n  ";
      msg += e;
    }
    throw std::invalid_argument(msg);
  }
  return cfg;
}

SystemConfig platform_from(desc::Args& args) {
  args.declare(platform_knobs());
  SystemConfig cfg = paper_system_config();
  std::vector<std::string> errors;
  overlay_config(args.config(), cfg, errors);
  for (std::string& e : errors) args.fail(std::move(e));
  return cfg;
}

}  // namespace hmcc::system
