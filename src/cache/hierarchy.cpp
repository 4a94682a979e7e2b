#include "cache/hierarchy.hpp"

#include <cassert>

namespace hmcc::cache {

Hierarchy::Hierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg), llc_(std::make_unique<Cache>(cfg.llc)) {
  assert(cfg.num_cores > 0);
  l1_.reserve(cfg.num_cores);
  l2_.reserve(cfg.num_cores);
  for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
    l1_.push_back(std::make_unique<Cache>(cfg.l1));
    l2_.push_back(std::make_unique<Cache>(cfg.l2));
  }
}

HierarchyAccessResult Hierarchy::access(std::uint32_t core, Addr addr,
                                        ReqType type) {
  assert(core < cfg_.num_cores);
  const bool is_store = type == ReqType::kStore;
  Cache& l1 = *l1_[core];
  Cache& l2 = *l2_[core];

  HierarchyAccessResult r{};
  if (!wb_free_.empty()) {
    r.memory_writebacks = std::move(wb_free_.back());
    wb_free_.pop_back();
  }
  r.line_addr = llc_->line_addr(addr);
  r.latency = cfg_.l1.hit_latency;

  if (l1.lookup(addr, is_store).hit) {
    r.level = HitLevel::kL1;
    return r;
  }
  r.latency += cfg_.l2.hit_latency;

  const bool l2_hit = l2.lookup(addr, is_store).hit;

  // The line will be (re)installed in L1 regardless of where it comes from;
  // a dirty L1 victim is folded into L2.
  auto install_l1 = [&] {
    if (auto victim = l1.fill(addr, is_store)) {
      if (auto l2_victim = l2.fill(*victim, /*dirty=*/true)) {
        // Dirty L2 victim: merge into the LLC copy when present, otherwise
        // write back to memory around the LLC.
        if (llc_->probe(*l2_victim)) {
          llc_->lookup(*l2_victim, /*is_store=*/true);
        } else {
          r.memory_writebacks.push_back(*l2_victim);
        }
      }
    }
  };

  if (l2_hit) {
    install_l1();
    r.level = HitLevel::kL2;
    return r;
  }
  r.latency += cfg_.llc.hit_latency;

  if (llc_->lookup(addr, /*is_store=*/false).hit) {
    // LLC hit: promote into L2 + L1. (The LLC line is not marked dirty by a
    // store here; dirtiness lives in L1/L2 until eviction.)
    if (auto l2_victim = l2.fill(addr, /*dirty=*/false)) {
      if (llc_->probe(*l2_victim)) {
        llc_->lookup(*l2_victim, /*is_store=*/true);
      } else {
        r.memory_writebacks.push_back(*l2_victim);
      }
    }
    install_l1();
    r.level = HitLevel::kLlc;
    return r;
  }

  // LLC miss: private levels still fill now (their timing effect is folded
  // into the memory latency the system layer adds); the LLC itself fills on
  // response via fill_llc().
  if (auto l2_victim = l2.fill(addr, /*dirty=*/false)) {
    if (llc_->probe(*l2_victim)) {
      llc_->lookup(*l2_victim, /*is_store=*/true);
    } else {
      r.memory_writebacks.push_back(*l2_victim);
    }
  }
  install_l1();
  r.level = HitLevel::kMemory;
  return r;
}

std::optional<Addr> Hierarchy::fill_llc(Addr line_addr, bool dirty) {
  return llc_->fill(line_addr, dirty);
}

void Hierarchy::recycle(std::vector<Addr>&& writebacks) {
  if (writebacks.capacity() == 0) return;
  writebacks.clear();
  wb_free_.push_back(std::move(writebacks));
}

desc::StatSet Hierarchy::stat_descriptors() const {
  // Level sampler: sums the live per-core caches on every call, so one
  // descriptor serves both end-of-run publication and any future mid-run
  // sampling without a cached snapshot going stale.
  auto level_stats = [this](const char* level) {
    return [this, level]() -> CacheStats {
      CacheStats sum;
      auto accumulate = [&sum](const CacheStats& s) {
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.evictions += s.evictions;
        sum.writebacks += s.writebacks;
      };
      if (level[1] == '1') {
        for (const auto& c : l1_) accumulate(c->stats());
      } else if (level[1] == '2') {
        for (const auto& c : l2_) accumulate(c->stats());
      } else {
        accumulate(llc_->stats());
      }
      return sum;
    };
  };

  desc::StatSet set;
  for (const char* level : {"l1", "l2", "llc"}) {
    const obs::Labels labels{{"level", level}};
    auto stats_of = level_stats(level);
    set.counter("hmcc_cache_hits_total", "Cache hits per level",
                [stats_of] { return stats_of().hits; }, labels)
        .counter("hmcc_cache_misses_total", "Cache misses per level",
                 [stats_of] { return stats_of().misses; }, labels)
        .counter("hmcc_cache_evictions_total", "Cache evictions per level",
                 [stats_of] { return stats_of().evictions; }, labels)
        .counter("hmcc_cache_writebacks_total", "Dirty write-backs per level",
                 [stats_of] { return stats_of().writebacks; }, labels);
  }
  return set;
}

}  // namespace hmcc::cache
