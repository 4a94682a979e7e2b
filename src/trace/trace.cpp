#include "trace/trace.hpp"

#include <unordered_set>

#include "common/bits.hpp"

namespace hmcc::trace {

TraceProfile profile(const MultiTrace& trace) {
  TraceProfile p;
  std::unordered_set<Addr> lines;
  for (const auto& stream : trace.per_core) {
    Addr prev_end = ~0ULL;
    for (const TraceRecord& r : stream) {
      ++p.records;
      if (r.is_fence()) {
        ++p.fences;
        continue;
      }
      if (r.is_barrier()) {
        ++p.barriers;
        continue;
      }
      if (r.type == ReqType::kLoad) {
        ++p.loads;
      } else {
        ++p.stores;
      }
      p.bytes += r.access_size();
      p.size.add(static_cast<double>(r.access_size()));
      lines.insert(align_down(r.access_addr(), arch::kLineSize));
      if (r.access_addr() == prev_end) {
        p.sequential_fraction += 1.0;  // counted, normalized below
      }
      prev_end = r.access_addr() + r.access_size();
    }
  }
  p.distinct_lines = lines.size();
  const std::uint64_t ops = p.loads + p.stores;
  p.sequential_fraction = ops ? p.sequential_fraction /
                                    static_cast<double>(ops)
                              : 0.0;
  return p;
}

}  // namespace hmcc::trace
