// Heap-allocation counter of the benchmark binary (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls of the global operator new / new[] made so far on this thread.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace perfbench
