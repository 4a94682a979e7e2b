// Ablation: hybrid fast/slow memory tiering behind the coalescer.
//
// The paper assumes the whole working set lives in the cube. This bench
// quantifies the hybrid composition (mem=hybrid): an HMC fast tier of
// fast_pages hot pages in front of a DDR/NVM-style capacity tier, under
// each tiering scheme — cache (tag-table miss stalls the demand while the
// page fills), migrate (epoch-based hot-page promotion), static (fixed
// even/odd split, the no-movement floor). Each point runs with the
// conventional MSHR baseline and with the full coalescer, so the table
// shows how much coalescing still buys once part of the traffic lands on
// slow channels — and how much of the gap each scheme recovers via its
// fast-tier hit rate versus the migration traffic it pays for it.
//
// Sweep: {stream, sg} x scheme {cache, migrate, static} x {conventional,
// full}. Point-level results land in BENCH_hybrid.json beside the CSV
// (written only when a CSV path is configured, so nocsv=1 runs stay
// file-free).
//
// Not part of the default `bench_suite` selection: the default suite's
// stdout+CSV bundle is pinned by the byte-identity golden, which predates
// this bench. Run it via only=ablation_hybrid.
#include <cstdio>
#include <string>

#include "suite/benches.hpp"

namespace hmcc::bench {

namespace {

constexpr const char* kNames[] = {"stream", "sg"};
constexpr mem::HybridScheme kSchemes[] = {mem::HybridScheme::kCache,
                                          mem::HybridScheme::kMigrate,
                                          mem::HybridScheme::kStatic};
constexpr system::CoalescerMode kModes[] = {
    system::CoalescerMode::kConventional, system::CoalescerMode::kFull};

system::SystemConfig tiered_config(const BenchEnv& env,
                                   mem::HybridScheme scheme,
                                   system::CoalescerMode mode) {
  system::SystemConfig cfg = env.platform;
  cfg.mem.backend = mem::BackendKind::kHybrid;
  cfg.mem.scheme = scheme;
  cfg.mem.fast_pages = 512;  // 2 MiB of 4 KiB pages: a real capacity cliff
  cfg.mem.tag_ways = 8;
  cfg.mem.hot_threshold = 4;
  cfg.mem.migrate_epoch = 20000;
  system::apply_mode(cfg, mode);
  return cfg;
}

}  // namespace

SuiteBench make_ablation_hybrid() {
  SuiteBench b;
  b.meta.name = "ablation_hybrid";
  b.meta.title = "Ablation: Hybrid Fast/Slow Tiering x Coalescing";
  b.meta.paper_note =
      "HMC as a 512-page fast tier over DDR/NVM-class channels; cache vs "
      "epoch-migration vs static split, conventional vs full coalescer";
  b.meta.default_accesses = 6000;
  b.in_default_suite = false;  // keeps the pinned suite bundle unchanged
  b.tasks = [](const BenchEnv& env) {
    std::vector<Point> points;
    for (const char* name : kNames) {
      for (const mem::HybridScheme scheme : kSchemes) {
        for (const system::CoalescerMode mode : kModes) {
          points.push_back({name, tiered_config(env, scheme, mode),
                            env.params});
        }
      }
    }
    return run_point_tasks(std::move(points));
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table table({"benchmark", "scheme", "runtime (base)", "runtime (coal)",
                 "fast hits (coal)", "migration B (coal)",
                 "mean lat (coal)", "speedup"});
    std::size_t idx = 0;
    for (const char* name : kNames) {
      for (const mem::HybridScheme scheme : kSchemes) {
        const auto& base = result_as<system::RunResult>(results[idx++]);
        const auto& coal = result_as<system::RunResult>(results[idx++]);
        const double speedup =
            coal.report.runtime
                ? static_cast<double>(base.report.runtime) /
                      static_cast<double>(coal.report.runtime)
                : 1.0;
        table.add_row(
            {name, mem::to_string(scheme), Table::fmt(base.report.runtime),
             Table::fmt(coal.report.runtime),
             Table::pct(coal.report.mem_tier.fast_hit_rate()),
             Table::fmt(coal.report.mem_tier.migration_bytes),
             Table::fmt(coal.report.mem_tier.demand_latency.mean(), 1),
             Table::fmt(speedup, 2) + "x"});
      }
    }
    return table;
  };
  b.epilogue = [](const BenchEnv& env, std::vector<std::any>& results) {
    // Headline: per-scheme fast-tier hit rate of the coalesced stream run
    // (stride per workload = |schemes| x |modes|; the full-coalescer run
    // of scheme s sits at offset s * |modes| + 1).
    std::string line = "(stream fast-hit rate, coalesced:";
    const char* labels[] = {" cache=", " migrate=", " static="};
    for (std::size_t s = 0; s < 3; ++s) {
      const auto& r = result_as<system::RunResult>(results[s * 2 + 1]);
      line += labels[s] +
              Table::pct(r.report.mem_tier.fast_hit_rate());
    }
    line += ")\n";

    if (!env.csv_path.empty()) {
      std::string json = "{\"bench\": \"ablation_hybrid\", \"points\": [";
      std::size_t idx = 0;
      for (const char* name : kNames) {
        for (const mem::HybridScheme scheme : kSchemes) {
          for (const system::CoalescerMode mode : kModes) {
            const auto& r = result_as<system::RunResult>(results[idx]);
            const auto& t = r.report.mem_tier;
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "%s{\"workload\": \"%s\", \"scheme\": \"%s\", \"mode\": "
                "\"%s\", \"runtime\": %llu, \"fast_hits\": %llu, "
                "\"slow_accesses\": %llu, \"fast_hit_rate\": %.6f, "
                "\"page_fills\": %llu, \"promotions\": %llu, "
                "\"demotions\": %llu, \"migration_bytes\": %llu, "
                "\"mean_demand_latency\": %.3f}",
                idx ? ", " : "", name, mem::to_string(scheme),
                system::to_string(mode),
                static_cast<unsigned long long>(r.report.runtime),
                static_cast<unsigned long long>(t.fast_hits),
                static_cast<unsigned long long>(t.slow_accesses),
                t.fast_hit_rate(),
                static_cast<unsigned long long>(t.page_fills),
                static_cast<unsigned long long>(t.promotions),
                static_cast<unsigned long long>(t.demotions),
                static_cast<unsigned long long>(t.migration_bytes),
                t.demand_latency.mean());
            json += buf;
            ++idx;
          }
        }
      }
      json += "]}\n";
      write_beside_csv(env, "BENCH_hybrid.json", json);
    }
    return line;
  };
  return b;
}

}  // namespace hmcc::bench
