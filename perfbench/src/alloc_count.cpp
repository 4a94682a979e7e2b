// Replaced global operator new/delete that count heap allocations made on
// the calling thread. Linked into the benchmark binary only; the simulator
// itself allocates through the standard operators as usual.
#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t allocations() noexcept { return t_allocations; }
}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
