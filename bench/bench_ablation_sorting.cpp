// Ablation (§3.3): choice of sorting network.
//
// The paper picks Batcher odd-even mergesort because it "requires fewest
// comparators compared to shellsort and bitonic sort" with O(log^2 n)
// stages. This bench prints the comparator/step economics of odd-even
// mergesort vs bitonic sort for n = 8..64.
//
// Not part of the default `bench_suite` selection: the default suite's
// stdout+CSV bundle is pinned by the byte-identity golden, which predates
// this bench. Run it via only=ablation_sorting.
#include "coalescer/sorting_network.hpp"
#include "suite/benches.hpp"

namespace hmcc::bench {

namespace {

/// Bitonic sorting network comparator count: n/2 comparators in each of the
/// k(k+1)/2 steps (k = log2 n).
std::uint32_t bitonic_comparators(std::uint32_t n) {
  std::uint32_t k = 0;
  while ((1u << k) < n) ++k;
  return n / 2 * (k * (k + 1) / 2);
}

}  // namespace

SuiteBench make_ablation_sorting() {
  SuiteBench b;
  b.meta.name = "ablation_sorting";
  b.meta.title = "Ablation: Sorting Network Choice";
  b.meta.paper_note =
      "paper SS3.3: odd-even mergesort needs fewer comparators than bitonic "
      "at every width (63 vs 80 at n=16)";
  b.in_default_suite = false;
  // Pure arithmetic wrapped as one task — see fig01 for why every bench
  // keeps a non-empty task list.
  b.tasks = [](const BenchEnv&) {
    std::vector<SuiteTask> tasks;
    tasks.push_back([] {
      Table table({"n", "OEM comparators", "bitonic comparators", "steps",
                   "max comparators/step"});
      for (std::uint32_t n : {8u, 16u, 32u, 64u}) {
        const coalescer::SortingNetwork net(n);
        table.add_row(
            {Table::fmt(std::uint64_t{n}),
             Table::fmt(std::uint64_t{net.num_comparators()}),
             Table::fmt(std::uint64_t{bitonic_comparators(n)}),
             Table::fmt(std::uint64_t{net.num_steps()}),
             Table::fmt(std::uint64_t{net.max_comparators_per_step()})});
      }
      return std::any(std::move(table));
    });
    return tasks;
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    return result_as<Table>(results[0]);
  };
  return b;
}

}  // namespace hmcc::bench
