// SweepRunner: parallel sweep execution must never change results — only
// wall-clock. The determinism test formats every field a bench table/CSV is
// built from and requires byte-identical strings across thread counts.
#include "system/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "system/runner.hpp"

namespace hmcc::system {
namespace {

std::string report_fingerprint(const RunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%s mode=%d runtime=%llu drained=%d cpu=%llu miss=%llu wb=%llu "
      "mem=%llu payload=%llu xfer=%llu ctrl=%llu eff=%.17g bw=%.17g "
      "dmc=%.17g crq=%.17g",
      r.workload.c_str(), static_cast<int>(r.mode),
      static_cast<unsigned long long>(r.report.runtime), r.report.drained,
      static_cast<unsigned long long>(r.report.cpu_accesses),
      static_cast<unsigned long long>(r.report.llc_misses),
      static_cast<unsigned long long>(r.report.writebacks),
      static_cast<unsigned long long>(r.report.memory_requests),
      static_cast<unsigned long long>(r.report.miss_payload_bytes),
      static_cast<unsigned long long>(r.report.hmc.transferred_bytes),
      static_cast<unsigned long long>(r.report.hmc.control_bytes),
      r.report.coalescing_efficiency(),
      r.report.payload_bandwidth_efficiency(),
      r.report.coalescer.dmc_latency.mean(),
      r.report.coalescer.crq_fill_time.mean());
  return buf;
}

std::vector<RunResult> run_all(const SweepRunner& runner,
                               const std::vector<SweepRunner::Point>& points) {
  return runner.map<RunResult>(points.size(), [&](std::size_t i) {
    return run_workload(points[i].workload, points[i].cfg, points[i].params);
  });
}

std::vector<SweepRunner::Point> sample_points() {
  workloads::WorkloadParams params;
  params.accesses_per_core = 1500;
  params.seed = 3;
  std::vector<SweepRunner::Point> points;
  for (const std::string& name : {std::string("stream"), std::string("sg"),
                                  std::string("hpcg")}) {
    for (const auto mode :
         {CoalescerMode::kConventional, CoalescerMode::kFull}) {
      SystemConfig cfg = paper_system_config();
      cfg.hierarchy.num_cores = 4;
      apply_mode(cfg, mode);
      points.push_back({name, cfg, params});
    }
  }
  return points;
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults) {
  const auto points = sample_points();
  const auto serial = run_all(SweepRunner(1), points);
  const auto parallel = run_all(SweepRunner(4), points);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(report_fingerprint(serial[i]), report_fingerprint(parallel[i]))
        << "point " << i;
  }
}

TEST(SweepRunner, ResultsComeBackInInputOrder) {
  SweepRunner runner(4);
  const auto out = runner.map<std::size_t>(
      64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, EveryIndexRunsExactlyOnce) {
  SweepRunner runner(3);
  std::vector<std::atomic<int>> hits(101);
  runner.for_each_index(101, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(SweepRunner, PropagatesWorkerExceptions) {
  SweepRunner runner(2);
  EXPECT_THROW(runner.for_each_index(8,
                                     [](std::size_t i) {
                                       if (i == 5) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_THROW((void)run_all(runner, {{"no-such-workload",
                                       paper_system_config(),
                                       workloads::WorkloadParams{}}}),
               std::invalid_argument);
}

TEST(SweepRunner, RethrowsLowestFailingIndexDeterministically) {
  // With several failing indices the claim loop may see them in any order
  // across threads; the caller must still always get the LOWEST failing
  // index's exception so error reports don't depend on scheduling.
  for (int round = 0; round < 20; ++round) {
    SweepRunner runner(4);
    try {
      runner.for_each_index(100, [](std::size_t i) {
        throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      // Index 0 always fails and always runs, so its exception must win.
      EXPECT_STREQ(e.what(), "0") << "round " << round;
    }
  }
}

TEST(SweepRunner, ZeroSelectsHardwareConcurrency) {
  EXPECT_GE(SweepRunner(0).threads(), 1u);
  EXPECT_EQ(SweepRunner(7).threads(), 7u);
  SweepRunner(5).for_each_index(0, [](std::size_t) { FAIL(); });
}

TEST(SweepRunner, FailureStopsNewIndicesFromStarting) {
  // After a throw no fresh index may be claimed: with 2 workers at most
  // threads-1 in-flight indices can still run after the failing one.
  // Every index past 0 waits until the worker that threw index 0 has left
  // the pool, i.e. until the runner has recorded the failure. Without the
  // wait a busy host could let the other worker finish the whole range
  // while the first one is still unwinding.
  SweepRunner runner(2);
  ASSERT_NE(runner.pool(), nullptr);
  std::atomic<int> started{0};
  try {
    runner.for_each_index(1000, [&](std::size_t i) {
      ++started;
      if (i == 0) throw std::runtime_error("early");
      while (runner.pool()->active() > 1) std::this_thread::yield();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(started.load(), 1000);
}

TEST(SweepRunner, PoolPersistsAcrossSweepsAndCopies) {
  SweepRunner runner(4);
  ASSERT_NE(runner.pool(), nullptr);
  const ThreadPool* workers = runner.pool().get();
  // Repeated sweeps on one runner (and on copies of it — BenchEnv::runner()
  // returns by value) reuse the same worker pool instead of respawning.
  const SweepRunner copy = runner;
  for (int round = 0; round < 3; ++round) {
    const auto out = copy.map<std::size_t>(16, [](std::size_t i) { return i; });
    ASSERT_EQ(out.size(), 16u);
    EXPECT_EQ(copy.pool().get(), workers);
  }
  // A single-threaded runner never spawns workers at all.
  EXPECT_EQ(SweepRunner(1).pool(), nullptr);
}

}  // namespace
}  // namespace hmcc::system
