#include "system/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

namespace hmcc::system {

SweepRunner::SweepRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;  // hardware_concurrency may report 0
  if (threads_ > 1) pool_ = std::make_shared<ThreadPool>(threads_);
}

void SweepRunner::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  if (!pool_ || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Claim-loop over a shared index: `workers` pool tasks pull the next
  // unclaimed index until the range (or the first failure) exhausts it. The
  // failure flag is checked BEFORE claiming, so after an exception no worker
  // starts a fresh point — at most the points already in flight finish.
  //
  // When several in-flight points throw, the LOWEST failing index wins the
  // rethrow, not whichever worker happened to lose the race into the error
  // slot: index 0 failing must surface the same exception at threads=1 and
  // threads=64, or a sweep's error message would change with the machine.
  const std::size_t workers = std::min<std::size_t>(threads_, count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::size_t error_index = 0;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> done;
  done.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) done.push_back(pool_->submit(worker));
  for (std::future<void>& f : done) f.get();  // worker() itself never throws
  if (error) std::rethrow_exception(error);
}

}  // namespace hmcc::system
