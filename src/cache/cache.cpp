#include "cache/cache.hpp"

#include <cassert>

namespace hmcc::cache {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      line_bits_(log2_floor(cfg.line_bytes)),
      num_sets_(cfg.num_sets()),
      lines_(static_cast<std::size_t>(cfg.num_sets()) * cfg.ways) {
  assert(cfg.valid());
}

Cache::Line* Cache::find(Addr addr) {
  const Addr tag = tag_of(addr);
  Line* set = set_of(addr);
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (set[w].valid && set[w].tag == tag) return &set[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

bool Cache::probe(Addr addr) const { return find(addr) != nullptr; }

Cache::LookupResult Cache::lookup(Addr addr, bool is_store) {
  if (Line* line = find(addr)) {
    ++stats_.hits;
    if (is_store) line->dirty = true;
    line->stamp = ++clock_;
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
  // Refill of a line that is already present (e.g. racing fills) just
  // updates state.
  if (Line* line = find(addr)) {
    line->dirty = line->dirty || dirty;
    line->stamp = ++clock_;
    return std::nullopt;
  }

  // Prefer an invalid way; otherwise evict the least recently touched one
  // (the lowest way on a tie).
  Line* set = set_of(addr);
  Line* victim = nullptr;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!set[w].valid) {
      victim = &set[w];
      break;
    }
  }
  std::optional<Addr> writeback;
  if (victim == nullptr) {
    victim = &set[0];
    for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
      if (set[w].stamp < victim->stamp) victim = &set[w];
    }
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.writebacks;
      writeback = victim->tag << line_bits_;
    }
  }
  victim->tag = tag_of(addr);
  victim->valid = true;
  victim->dirty = dirty;
  victim->stamp = ++clock_;
  return writeback;
}

}  // namespace hmcc::cache
