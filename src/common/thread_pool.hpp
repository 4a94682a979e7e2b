// Persistent worker-thread pool with a bounded, future-returning work queue.
//
// bench_suite and the daemon's JobManager each fan simulation points out
// over a pool (bench/suite/registry.hpp's submit_tasks/collect_tasks), and
// the JobManager dispatches its jobs on a second one. Spawning a
// std::thread per point pays a spawn/join cost for every point, and a
// mid-spawn exception leaks already-started threads straight into
// std::terminate. The pool makes thread creation a one-time cost and
// funnels every hazard into one tested place:
//
//  - construction is exception-safe: if the Nth worker fails to start, the
//    N-1 running workers are shut down and joined before the ctor rethrows;
//  - submit() packages any callable into a std::future, so worker exceptions
//    travel to the caller instead of terminating the process;
//  - an optional queue bound turns submit() into a backpressure point, so a
//    producer enumerating millions of tasks cannot outrun memory;
//  - the destructor drains every queued task, then joins (clean shutdown:
//    no future is ever abandoned with a broken promise).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hmcc {

class ThreadPool {
 public:
  /// @p threads = 0 selects std::thread::hardware_concurrency() (min 1).
  /// @p max_queued bounds the number of tasks waiting to be picked up
  /// (excluding the ones executing); submit() blocks while the backlog is at
  /// the bound. 0 = unbounded.
  explicit ThreadPool(unsigned threads = 0, std::size_t max_queued = 0);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (>= 1).
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Tasks queued but not yet started.
  [[nodiscard]] std::size_t queued() const;

  /// Tasks currently executing on a worker.
  [[nodiscard]] std::size_t active() const;

  /// Schedule @p fn on the pool; the returned future carries its result or
  /// exception. Blocks while a bounded queue is full. Must not be called
  /// after the destructor has begun (there is no re-open).
  template <typename Fn>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<Fn>>> submit(
      Fn&& fn) {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    std::packaged_task<R()> task(std::forward<Fn>(fn));
    std::future<R> fut = task.get_future();
    // packaged_task<void()> accepts any move-only callable and discards its
    // return value; the inner task's promise feeds `fut`.
    enqueue(Job(std::move(task)));
    return fut;
  }

  /// Non-blocking submit for backpressure points: where submit() would wait
  /// for a bounded queue to shrink, try_submit() returns std::nullopt and
  /// leaves the pool untouched, so the caller can shed load instead of
  /// stalling (the bench-service daemon turns that into HTTP 429). On an
  /// unbounded pool it never refuses.
  template <typename Fn>
  [[nodiscard]] std::optional<std::future<std::invoke_result_t<std::decay_t<Fn>>>>
  try_submit(Fn&& fn) {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    std::packaged_task<R()> task(std::forward<Fn>(fn));
    std::future<R> fut = task.get_future();
    if (!try_enqueue(Job(std::move(task)))) return std::nullopt;
    return fut;
  }

  /// Block until the queue is empty and no worker is executing a task.
  /// Tasks submitted concurrently with the wait may or may not be covered.
  void wait_idle();

 private:
  using Job = std::packaged_task<void()>;

  void enqueue(Job job);
  [[nodiscard]] bool try_enqueue(Job job);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;   // workers wait here
  std::condition_variable space_available_;  // bounded submit() waits here
  std::condition_variable idle_;             // wait_idle() waits here
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  std::size_t max_queued_ = 0;  ///< 0 = unbounded
  std::size_t active_ = 0;      ///< tasks currently executing
  bool stopping_ = false;
};

}  // namespace hmcc
