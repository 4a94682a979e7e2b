#include "workloads/workload.hpp"

#include <gtest/gtest.h>

#include "common/bits.hpp"

namespace hmcc::workloads {
namespace {

WorkloadParams small_params() {
  WorkloadParams p;
  p.num_cores = 4;
  p.accesses_per_core = 4000;
  p.seed = 7;
  return p;
}

TEST(WorkloadRegistry, TwelvePaperBenchmarks) {
  const auto& names = workload_names();
  ASSERT_EQ(names.size(), 12u);
  for (const std::string& name : names) {
    auto w = make_workload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_GT(w->memory_phase_fraction(), 0.0);
    EXPECT_LE(w->memory_phase_fraction(), 1.0);
  }
  EXPECT_EQ(make_workload("nonexistent"), nullptr);
}

TEST(WorkloadRegistry, FtHasSmallestMemoryPhaseFractionAmongTop) {
  // The best speedups (ft/sparselu/lu) come from compute-heavy apps.
  EXPECT_LT(make_workload("ft")->memory_phase_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(make_workload("ep")->memory_phase_fraction(), 1.0);
}

class WorkloadParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadParamTest, GeneratesRequestedShape) {
  const WorkloadParams p = small_params();
  auto w = make_workload(GetParam());
  const trace::MultiTrace mt = w->generate(p);
  ASSERT_EQ(mt.num_cores(), p.num_cores);
  const trace::TraceProfile prof = trace::profile(mt);
  const std::uint64_t ops = prof.loads + prof.stores;
  // Roughly the requested volume (workload-specific multipliers allowed).
  EXPECT_GT(ops, p.num_cores * p.accesses_per_core / 4);
  EXPECT_LT(ops, p.num_cores * p.accesses_per_core * 8);
  // Small payloads only (the paper's data-intensive mix).
  EXPECT_GE(prof.size.min(), 1.0);
  EXPECT_LE(prof.size.max(), 16.0);
  // Every core got work.
  for (const auto& stream : mt.per_core) {
    EXPECT_FALSE(stream.empty());
  }
}

TEST_P(WorkloadParamTest, DeterministicForSeed) {
  const WorkloadParams p = small_params();
  auto w = make_workload(GetParam());
  const trace::MultiTrace a = w->generate(p);
  const trace::MultiTrace b = w->generate(p);
  ASSERT_EQ(a.total_records(), b.total_records());
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    ASSERT_EQ(a.per_core[c].size(), b.per_core[c].size());
    for (std::size_t i = 0; i < a.per_core[c].size(); ++i) {
      EXPECT_EQ(a.per_core[c][i].addr, b.per_core[c][i].addr);
      EXPECT_EQ(a.per_core[c][i].type, b.per_core[c][i].type);
    }
  }
}

TEST_P(WorkloadParamTest, SeedChangesRandomWorkloads) {
  WorkloadParams p = small_params();
  auto w = make_workload(GetParam());
  const trace::MultiTrace a = w->generate(p);
  p.seed = 977;
  const trace::MultiTrace b = w->generate(p);
  // Deterministic-but-seedless generators (stream, ft, lu, hpcg) may be
  // identical; the seeded ones must differ somewhere.
  bool identical = a.total_records() == b.total_records();
  if (identical) {
    for (std::size_t c = 0; identical && c < a.per_core.size(); ++c) {
      for (std::size_t i = 0;
           identical && i < std::min(a.per_core[c].size(),
                                     b.per_core[c].size());
           ++i) {
        identical = a.per_core[c][i].addr == b.per_core[c][i].addr;
      }
    }
  }
  const std::string name = GetParam();
  const bool uses_seed = name == "sg" || name == "ssca2" || name == "cg" ||
                         name == "ep" || name == "is" || name == "sort" ||
                         name == "sparselu";
  if (uses_seed) {
    EXPECT_FALSE(identical) << name;
  }
}

TEST_P(WorkloadParamTest, BarriersArePairwiseMatched) {
  // Every core must emit the same number of barriers, or the system
  // deadlocks at the join.
  const WorkloadParams p = small_params();
  auto w = make_workload(GetParam());
  const trace::MultiTrace mt = w->generate(p);
  std::uint64_t expected = ~0ULL;
  for (const auto& stream : mt.per_core) {
    std::uint64_t count = 0;
    for (const auto& r : stream) count += r.is_barrier() ? 1 : 0;
    if (expected == ~0ULL) expected = count;
    EXPECT_EQ(count, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadParamTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

TEST(WorkloadShapes, FtIsSequentialEpIsNot) {
  // sequential_fraction counts accesses starting exactly where the previous
  // one ended; FT's pencil copies are the purest streaming pattern, EP's
  // random tallies the least.
  const WorkloadParams p = small_params();
  const auto ft_prof = trace::profile(make_workload("ft")->generate(p));
  const auto ep_prof = trace::profile(make_workload("ep")->generate(p));
  EXPECT_GT(ft_prof.sequential_fraction, 0.5);
  EXPECT_LT(ep_prof.sequential_fraction, 0.2);
  EXPECT_LT(ep_prof.sequential_fraction, ft_prof.sequential_fraction);
}

TEST(WorkloadShapes, HpcgPayloadsAreSixteenByteHeavy) {
  const WorkloadParams p = small_params();
  const auto prof = trace::profile(make_workload("hpcg")->generate(p));
  // Mean payload sits between 8 (x gathers) and 16 (matrix pairs).
  EXPECT_GT(prof.size.mean(), 9.0);
  EXPECT_LT(prof.size.mean(), 16.0);
}

TEST(WorkloadShapes, EpHasLowestTrafficVolume) {
  const WorkloadParams p = small_params();
  const auto ep = trace::profile(make_workload("ep")->generate(p));
  for (const char* name : {"lu", "sp", "ft", "stream"}) {
    const auto other = trace::profile(make_workload(name)->generate(p));
    EXPECT_LT(ep.bytes, other.bytes) << name;
  }
}

TEST(WorkloadShapes, StreamAndSgReserveExactlyWhatTheyEmit) {
  // A short reserve() makes the first push_back past it copy the core's
  // whole trace into a buffer twice its size.
  for (const char* name : {"stream", "sg"}) {
    const auto mt = make_workload(name)->generate(small_params());
    for (const auto& stream : mt.per_core) {
      EXPECT_EQ(stream.capacity(), stream.size()) << name;
    }
  }
}

TEST(WorkloadShapes, LuAndSpAreTheLargestTraces) {
  const WorkloadParams p = small_params();
  const auto lu = trace::profile(make_workload("lu")->generate(p));
  const auto sp = trace::profile(make_workload("sp")->generate(p));
  for (const std::string& name : workload_names()) {
    if (name == "lu" || name == "sp") continue;
    const auto other = trace::profile(make_workload(name)->generate(p));
    EXPECT_GT(lu.records, other.records) << name;
    EXPECT_GT(sp.records, other.records) << name;
  }
}

TEST(WorkloadShapes, SharedDataIsActuallyShared) {
  // The gather workloads must touch lines from more than one core (shared
  // structures), unlike a fully partitioned layout.
  const WorkloadParams p = small_params();
  const auto mt = make_workload("cg")->generate(p);
  std::set<Addr> core0_lines;
  for (const auto& r : mt.per_core[0]) {
    if (r.is_access()) {
      core0_lines.insert(align_down(r.access_addr(), 64));
    }
  }
  std::uint64_t overlap = 0;
  for (const auto& r : mt.per_core[1]) {
    if (r.is_access() && core0_lines.count(align_down(r.access_addr(), 64))) {
      ++overlap;
    }
  }
  EXPECT_GT(overlap, 0u);
}

}  // namespace
}  // namespace hmcc::workloads
