#include "cache/cache.hpp"

#include <cassert>

namespace hmcc::cache {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      line_bits_(log2_floor(cfg.line_bytes)),
      num_sets_(cfg.num_sets()),
      lines_(static_cast<std::size_t>(cfg.num_sets()) * cfg.ways),
      policy_(make_policy(cfg.replacement, cfg.num_sets(), cfg.ways)) {
  assert(cfg.valid());
}

Cache::Line* Cache::find(Addr addr, std::uint32_t* way_out) {
  const std::uint32_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) {
      if (way_out) *way_out = w;
      return &line;
    }
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

bool Cache::probe(Addr addr) const { return find(addr) != nullptr; }

Cache::LookupResult Cache::lookup(Addr addr, bool is_store) {
  std::uint32_t way = 0;
  if (Line* line = find(addr, &way)) {
    ++stats_.hits;
    if (is_store) line->dirty = true;
    policy_->touch(set_index(addr), way);
    return {true, std::nullopt};
  }
  ++stats_.misses;
  return {false, std::nullopt};
}

Cache::LookupResult Cache::access(Addr addr, bool is_store) {
  LookupResult r = lookup(addr, is_store);
  if (!r.hit) {
    r.writeback = fill(addr, is_store);
  }
  return r;
}

std::optional<Addr> Cache::fill(Addr addr, bool dirty) {
  const std::uint32_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;

  // Refill of a line that is already present (e.g. racing fills) just
  // updates state.
  std::uint32_t way = 0;
  if (Line* line = find(addr, &way)) {
    line->dirty = line->dirty || dirty;
    policy_->touch(set, way);
    return std::nullopt;
  }

  // Prefer an invalid way.
  std::uint32_t victim_way = cfg_.ways;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!lines_[base + w].valid) {
      victim_way = w;
      break;
    }
  }
  std::optional<Addr> writeback;
  if (victim_way == cfg_.ways) {
    victim_way = policy_->victim(set);
    Line& victim = lines_[base + victim_way];
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.writebacks;
      writeback = victim.tag << line_bits_;
    }
  }
  Line& line = lines_[base + victim_way];
  line.tag = tag;
  line.valid = true;
  line.dirty = dirty;
  policy_->touch(set, victim_way);
  return writeback;
}

}  // namespace hmcc::cache
