// Persistent worker-thread pool with a future-returning work queue.
//
// bench_suite fans simulation points out over a pool
// (bench/suite/registry.hpp's submit_tasks/collect_tasks). Spawning a
// std::thread per point pays a spawn/join cost for every point, and a
// mid-spawn exception leaks already-started threads straight into
// std::terminate. The pool makes thread creation a one-time cost and
// funnels every hazard into one tested place:
//
//  - construction is exception-safe: if the Nth worker fails to start, the
//    N-1 running workers are shut down and joined before the ctor rethrows;
//  - submit() packages any callable into a std::future, so worker exceptions
//    travel to the caller instead of terminating the process;
//  - the destructor drains every queued task, then joins (clean shutdown:
//    no future is ever abandoned with a broken promise).
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hmcc {

class ThreadPool {
 public:
  /// @p threads = 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (>= 1).
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Schedule @p fn on the pool; the returned future carries its result or
  /// exception. Must not be called after the destructor has begun (there is
  /// no re-open).
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

 private:
  using Job = std::packaged_task<void()>;

  void enqueue(Job job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;  // workers wait here
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace hmcc
