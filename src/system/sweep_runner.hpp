// Parallel sweep execution for the figure benches and scaling experiments.
//
// Every figure of the paper is a sweep over independent (SystemConfig,
// workload, seed) points; each point builds its own System, Workload and RNG
// state, so points share nothing mutable and can run on separate host
// threads. SweepRunner fans a list of points out over a persistent
// common::ThreadPool and collects results INTO INPUT ORDER, so a sweep's
// output (tables, CSV rows) is byte-identical regardless of thread count —
// parallelism changes wall-clock, never results.
//
// The pool lives as long as the runner: repeated map() calls on one runner
// reuse the same workers instead of paying a thread-spawn/join round per
// sweep (the bench-suite driver runs every figure's points through a single
// runner this way).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "workloads/workload.hpp"

namespace hmcc::system {

class SweepRunner {
 public:
  /// @p threads = 0 selects std::thread::hardware_concurrency(). The worker
  /// pool is spawned once here (none at all for a single-threaded runner).
  explicit SweepRunner(unsigned threads = 0);

  /// Worker threads this runner fans out over (>= 1).
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// One simulation point of a sweep.
  struct Point {
    std::string workload;
    SystemConfig cfg;
    workloads::WorkloadParams params;
  };

  /// Generic ordered fan-out: invoke @p fn(i) for every i in [0, count)
  /// across the pool. @p fn must be safe to call concurrently for distinct
  /// indices. If an invocation throws, no NEW index is started afterwards
  /// (in-flight ones finish) and the first exception is rethrown on the
  /// calling thread once every started invocation has completed.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn) const;

  /// Ordered parallel map: out[i] = fn(i). T must be default-constructible
  /// and movable.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(std::size_t count, Fn&& fn) const {
    std::vector<T> out(count);
    for_each_index(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// The underlying pool; nullptr for a single-threaded runner (which runs
  /// everything inline on the caller's thread).
  [[nodiscard]] const std::shared_ptr<ThreadPool>& pool() const noexcept {
    return pool_;
  }

 private:
  unsigned threads_;
  /// Shared so SweepRunner stays cheaply copyable (BenchEnv::runner()
  /// returns by value); copies fan out over the same workers.
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace hmcc::system
