#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hmcc {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
  auto fut = pool.submit([] { return 42; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ExceptionsTravelThroughTheFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  // A throwing task must not take the worker down with it.
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, MoveOnlyCallablesAndResults) {
  ThreadPool pool(2);
  auto ptr = std::make_unique<int>(99);
  auto fut = pool.submit(
      [p = std::move(ptr)] { return std::make_unique<int>(*p + 1); });
  EXPECT_EQ(*fut.get(), 100);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // One long task keeps the single worker busy while the rest queue up;
    // destruction must run them all, not drop them.
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      }));
    }
    futures.clear();  // abandoned futures still must not break promises
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, ManyProducersOneConsumerPool) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 50; ++i) {
        futures.push_back(
            pool.submit([&sum, p, i] { sum.fetch_add(p * 1000 + i); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  long expected = 0;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 50; ++i) expected += p * 1000 + i;
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace hmcc
