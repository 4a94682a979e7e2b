#include "common/thread_pool.hpp"

namespace hmcc {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;  // hardware_concurrency may report 0
  workers_.reserve(threads);
  try {
    for (unsigned t = 0; t < threads; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Join guard: a mid-spawn failure (EAGAIN, resource limits) must not
    // leak the workers already running — destroying a joinable std::thread
    // calls std::terminate.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(Job job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return !queue_.empty() || stopping_; });
    // Shutdown still drains the queue: every submitted future completes.
    if (queue_.empty()) return;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    job();  // packaged_task: exceptions land in the caller's future
    lock.lock();
  }
}

}  // namespace hmcc
