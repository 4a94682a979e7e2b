// Figure 10: coalesced HMC request distribution of HPCG.
//
// Paper: coalescing HPCG's miss stream by the ACTUAL requested data size
// (not the cache-line size) shows the majority of requests are small —
// 40.25% of the coalesced requests are 16 B loads — explaining why HPCG's
// bandwidth efficiency (20.02%) trails its coalescing efficiency (42.35%).
#include <cstdio>
#include <map>

#include "suite/benches.hpp"

namespace hmcc::bench {
namespace {

/// (size, is_load) histogram of the payload-coalesced HPCG miss stream.
struct Fig10Histogram {
  std::map<std::pair<std::uint32_t, bool>, std::uint64_t> by_size_type;
  std::uint64_t total = 0;
};

}  // namespace

SuiteBench make_fig10() {
  SuiteBench b;
  b.meta.name = "fig10";
  b.meta.title = "Figure 10: Coalesced HMC Request Distribution of HPCG";
  b.meta.paper_note = "paper: 40.25% of coalesced requests are 16B loads";
  b.tasks = [](const BenchEnv& env) {
    system::SystemConfig cfg = env.platform;
    system::apply_mode(cfg, system::CoalescerMode::kConventional);
    std::vector<SuiteTask> tasks;
    tasks.push_back([cfg, params = env.params] {
      std::vector<coalescer::CoalescerRequest> stream;
      (void)system::run_workload(
          "hpcg", cfg, params,
          [&stream](const coalescer::CoalescerRequest& r, std::uint32_t) {
            stream.push_back(r);
          });
      Fig10Histogram hist;
      for (const auto& pkt : payload_packets(stream, cfg.coalescer.window)) {
        ++hist.by_size_type[{pkt.bytes, pkt.type == ReqType::kLoad}];
        ++hist.total;
      }
      return std::any(std::move(hist));
    });
    return tasks;
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    const auto& hist = result_as<Fig10Histogram>(results[0]);
    Table table({"request", "count", "share"});
    for (const auto& [key, count] : hist.by_size_type) {
      const auto [bytes, is_load] = key;
      const double share = hist.total ? static_cast<double>(count) /
                                            static_cast<double>(hist.total)
                                      : 0;
      table.add_row({Table::fmt(std::uint64_t{bytes}) + "B " +
                         (is_load ? "load" : "store"),
                     Table::fmt(count), Table::pct(share)});
    }
    table.add_row({"total", Table::fmt(hist.total), "100.00%"});
    return table;
  };
  b.epilogue = [](const BenchEnv&, std::vector<std::any>& results) {
    const auto& hist = result_as<Fig10Histogram>(results[0]);
    double share_16b_loads = 0;
    for (const auto& [key, count] : hist.by_size_type) {
      const auto [bytes, is_load] = key;
      if (bytes == 16 && is_load && hist.total) {
        share_16b_loads =
            static_cast<double>(count) / static_cast<double>(hist.total);
      }
    }
    char line[96];
    std::snprintf(line, sizeof line, "16B-load share: %.2f%% (paper: 40.25%%)\n",
                  share_16b_loads * 100.0);
    return std::string(line);
  };
  return b;
}

}  // namespace hmcc::bench
