#include "cache/cache.hpp"

#include <cassert>

namespace hmcc::cache {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      line_bits_(log2_floor(cfg.line_bytes)),
      num_sets_(cfg.num_sets()),
      ways_(cfg.ways),
      lines_(static_cast<std::size_t>(cfg.num_sets()) * cfg.ways) {
  assert(cfg.valid());
  assert(cfg.line_bytes >= 4 && "the key's two flag bits need line_bits >= 2");
}

std::uint32_t Cache::way_of(const Line* set, std::uint64_t key) const noexcept {
  const std::uint64_t want = key | kDirty;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const std::uint64_t k = set[w].key;
    if ((k | kDirty) == want) return w;
    if (k == 0) break;  // the first empty way: every later way is empty too
  }
  return ways_;
}

bool Cache::probe(Addr addr) const {
  return way_of(set_of(addr), key_of(addr)) != ways_;
}

Cache::LookupResult Cache::lookup(Addr addr, bool is_store) {
  const std::uint64_t key = key_of(addr);
  Line* set = set_of(addr);
  if (const std::uint32_t w = way_of(set, key); w != ways_) {
    ++stats_.hits;
    if (is_store) set[w].key |= kDirty;
    set[w].stamp = ++clock_;
    return {true, std::nullopt};
  }
  ++stats_.misses;
  missed_ = key;
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
  const std::uint64_t key = key_of(addr);
  Line* set = set_of(addr);
  const bool known_absent = key == missed_;
  missed_ = 0;
  // Refill of a line that is already present (e.g. racing fills) just
  // updates state. The line the last lookup() missed cannot be present
  // (see missed_), so its fill skips the search.
  if (!known_absent) {
    if (const std::uint32_t w = way_of(set, key); w != ways_) {
      if (dirty) set[w].key |= kDirty;
      set[w].stamp = ++clock_;
      return std::nullopt;
    }
  }

  // One pass: take the first empty way; with none, evict the least
  // recently touched one (the lowest way on a tie).
  Line* victim = nullptr;
  Line* lru = set;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (set[w].key == 0) {
      victim = &set[w];
      break;
    }
    if (set[w].stamp < lru->stamp) lru = &set[w];
  }
  std::optional<Addr> writeback;
  if (victim != nullptr) {
    assert((victim + 1 == set + ways_ || victim[1].key == 0) &&
           "the valid ways of a set must be a prefix of it");
  } else {
    victim = lru;
    ++stats_.evictions;
    if ((victim->key & kDirty) != 0) {
      ++stats_.writebacks;
      writeback = (victim->key >> 2) << line_bits_;
    }
  }
  victim->key = dirty ? key | kDirty : key;
  victim->stamp = ++clock_;
  return writeback;
}

}  // namespace hmcc::cache
