// JobManager: the bench-service daemon's execution core. Admission must be
// bounded (refusal = HTTP 429), timeouts/cancellation cooperative, and every
// admitted job must reach a terminal state before shutdown.
#include "system/job_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace hmcc::system {
namespace {

using namespace std::chrono_literals;

JobManager::Options small_options() {
  JobManager::Options opts;
  opts.sweep_threads = 2;
  opts.job_workers = 1;
  opts.max_queued_jobs = 2;
  return opts;
}

/// Poll until the job reaches a terminal state (jobs run asynchronously and
/// drain() only proves completion, not state).
JobSnapshot wait_terminal(JobManager& mgr, std::uint64_t id) {
  for (;;) {
    auto snap = mgr.status(id);
    if (!snap.has_value()) ADD_FAILURE() << "job " << id << " vanished";
    if (!snap || is_terminal(snap->state)) return snap.value_or(JobSnapshot{});
    std::this_thread::sleep_for(1ms);
  }
}

TEST(JobManager, RunsJobAndExposesOutput) {
  JobManager mgr(small_options());
  auto id = mgr.submit("ok", [](const JobContext& ctx) {
    ctx.checkpoint();
    // Job-level fan-out goes through the shared task pool.
    std::vector<std::future<std::size_t>> squares;
    for (std::size_t i = 0; i < 8; ++i) {
      squares.push_back(ctx.pool().submit([i] { return i * i; }));
    }
    JobOutput out;
    out.text = "squares=" + std::to_string(squares.back().get());
    out.csv = "i,sq\n7,49\n";
    return out;
  });
  ASSERT_TRUE(id.has_value());
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_EQ(snap.name, "ok");
  EXPECT_EQ(snap.output.text, "squares=49");
  EXPECT_EQ(snap.output.csv, "i,sq\n7,49\n");
  EXPECT_TRUE(snap.error.empty());
}

TEST(JobManager, FailedJobReportsErrorMessage) {
  JobManager mgr(small_options());
  auto id = mgr.submit("boom", [](const JobContext&) -> JobOutput {
    throw std::runtime_error("bench exploded");
  });
  ASSERT_TRUE(id.has_value());
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.state, JobState::kFailed);
  EXPECT_EQ(snap.error, "bench exploded");
}

TEST(JobManager, StatusOfUnknownJobIsNullopt) {
  JobManager mgr(small_options());
  EXPECT_FALSE(mgr.status(12345).has_value());
  EXPECT_FALSE(mgr.cancel(12345));
}

TEST(JobManager, TimeoutTripsAtNextCheckpoint) {
  JobManager mgr(small_options());
  auto id = mgr.submit(
      "slow",
      [](const JobContext& ctx) -> JobOutput {
        // Cooperative model: the budget only trips at a checkpoint.
        while (true) {
          std::this_thread::sleep_for(2ms);
          ctx.checkpoint();
        }
      },
      10ms);
  ASSERT_TRUE(id.has_value());
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.state, JobState::kTimeout);
  EXPECT_FALSE(snap.error.empty());
  EXPECT_EQ(snap.timeout, 10ms);
}

TEST(JobManager, TimedOutJobReportsFewerPointsThanPlanned) {
  // The bench glue's shape: every task checkpoints on the task pool, and the
  // job waits for all of them. After the budget runs out each remaining task
  // throws at its checkpoint, and those tasks must not count as points done.
  JobManager mgr(small_options());
  constexpr std::size_t kTasks = 40;
  auto id = mgr.submit(
      "fanout",
      [](const JobContext& ctx) -> JobOutput {
        ctx.set_points_total(kTasks);
        std::vector<std::future<void>> futures;
        for (std::size_t i = 0; i < kTasks; ++i) {
          futures.push_back(ctx.pool().submit([&ctx] {
            ctx.checkpoint();
            std::this_thread::sleep_for(5ms);
          }));
        }
        // Wait for every task before get() can throw: the tasks hold &ctx.
        for (auto& f : futures) f.wait();
        for (auto& f : futures) f.get();
        return JobOutput{};
      },
      10ms);
  ASSERT_TRUE(id.has_value());
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.state, JobState::kTimeout);
  EXPECT_EQ(snap.points_total, kTasks);
  EXPECT_LT(snap.points_done, snap.points_total);
}

TEST(JobManager, TimeoutBudgetStartsWhenJobStartsNotWhenQueued) {
  // One worker: the gate job occupies it while "patient" waits queued for
  // longer than its own budget. The budget must start at run time, so
  // "patient" still completes.
  JobManager mgr(small_options());
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = mgr.submit("gate", [gate](const JobContext&) {
    gate.wait();
    return JobOutput{};
  });
  ASSERT_TRUE(blocker.has_value());
  auto patient = mgr.submit(
      "patient",
      [](const JobContext& ctx) {
        ctx.checkpoint();
        return JobOutput{"made it", ""};
      },
      20ms);
  ASSERT_TRUE(patient.has_value());
  std::this_thread::sleep_for(60ms);  // exceed patient's budget while queued
  release.set_value();
  const JobSnapshot snap = wait_terminal(mgr, *patient);
  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_EQ(snap.output.text, "made it");
}

TEST(JobManager, CancelQueuedJobNeverRuns) {
  JobManager mgr(small_options());
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = mgr.submit("gate", [gate](const JobContext&) {
    gate.wait();
    return JobOutput{};
  });
  ASSERT_TRUE(blocker.has_value());
  std::atomic<bool> body_ran{false};
  auto victim = mgr.submit("victim", [&body_ran](const JobContext&) {
    body_ran = true;
    return JobOutput{};
  });
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(mgr.cancel(*victim));
  release.set_value();
  const JobSnapshot snap = wait_terminal(mgr, *victim);
  EXPECT_EQ(snap.state, JobState::kCancelled);
  EXPECT_FALSE(body_ran.load());
  // Cancelling a terminal job is a no-op refusal.
  EXPECT_FALSE(mgr.cancel(*victim));
}

TEST(JobManager, CancelRunningJobStopsAtCheckpoint) {
  JobManager mgr(small_options());
  std::atomic<bool> started{false};
  auto id = mgr.submit("spin", [&started](const JobContext& ctx) -> JobOutput {
    started = true;
    while (true) {
      std::this_thread::sleep_for(1ms);
      ctx.checkpoint();
    }
  });
  ASSERT_TRUE(id.has_value());
  while (!started.load()) std::this_thread::yield();
  EXPECT_TRUE(mgr.cancel(*id));
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.state, JobState::kCancelled);
}

TEST(JobManager, AdmissionBoundRefusesExcessJobsWithoutATrace) {
  // 1 worker + max_queued_jobs=2: one running + two queued fit; the next
  // submission must be refused (the daemon turns this into HTTP 429) and the
  // refused job must not appear in status() afterwards.
  JobManager mgr(small_options());
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::uint64_t> admitted;
  auto blocker = mgr.submit("gate", [gate](const JobContext&) {
    gate.wait();
    return JobOutput{};
  });
  ASSERT_TRUE(blocker.has_value());
  admitted.push_back(*blocker);
  // The blocker may still be queued or already running; either way two more
  // always fit (queue holds at most 2).
  std::optional<std::uint64_t> refused_id;
  for (int i = 0; i < 8; ++i) {
    auto id = mgr.submit("filler", [](const JobContext&) {
      return JobOutput{};
    });
    if (id.has_value()) {
      admitted.push_back(*id);
    } else {
      refused_id = 0;  // marker: at least one refusal observed
      break;
    }
  }
  ASSERT_TRUE(refused_id.has_value()) << "admission bound never tripped";
  EXPECT_LE(admitted.size(), 4u);  // 1 running + 2 queued (+1 race slack)
  // Ids are sequential, so the refused job briefly held admitted.back()+1;
  // a refusal must leave no record behind.
  EXPECT_FALSE(mgr.status(admitted.back() + 1).has_value());
  const auto occ = mgr.occupancy();
  EXPECT_EQ(occ.max_queued_jobs, 2u);
  EXPECT_EQ(occ.job_workers, 1u);
  release.set_value();
  for (std::uint64_t id : admitted) {
    EXPECT_TRUE(is_terminal(wait_terminal(mgr, id).state));
  }
  // After the backlog drains, admission works again.
  auto late = mgr.submit("late", [](const JobContext&) {
    return JobOutput{};
  });
  EXPECT_TRUE(late.has_value());
}

TEST(JobManager, DrainCompletesEveryAdmittedJob) {
  JobManager::Options opts = small_options();
  opts.max_queued_jobs = 16;
  std::atomic<int> ran{0};
  std::vector<std::uint64_t> ids;
  JobManager mgr(opts);
  for (int i = 0; i < 10; ++i) {
    auto id = mgr.submit("j" + std::to_string(i), [&ran](const JobContext&) {
      std::this_thread::sleep_for(1ms);
      ran.fetch_add(1);
      return JobOutput{};
    });
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  mgr.drain();
  EXPECT_EQ(ran.load(), 10);
  const auto occ = mgr.occupancy();
  EXPECT_EQ(occ.queued, 0u);
  EXPECT_EQ(occ.running, 0u);
  EXPECT_EQ(occ.finished, 10u);
  for (std::uint64_t id : ids) {
    EXPECT_EQ(mgr.status(id)->state, JobState::kDone);
  }
}

TEST(JobManager, DestructorDrainsInsteadOfAbandoning) {
  std::atomic<int> ran{0};
  {
    JobManager::Options opts = small_options();
    opts.max_queued_jobs = 16;
    JobManager mgr(opts);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(mgr.submit("j", [&ran](const JobContext&) {
        std::this_thread::sleep_for(1ms);
        ran.fetch_add(1);
        return JobOutput{};
      }).has_value());
    }
  }  // ~JobManager must run all six, not drop the queued ones
  EXPECT_EQ(ran.load(), 6);
}

TEST(JobManager, ProgressTracksCheckpoints) {
  JobManager mgr(small_options());
  auto id = mgr.submit("prog", [](const JobContext& ctx) {
    ctx.set_points_total(5);
    for (int i = 0; i < 3; ++i) ctx.checkpoint();
    return JobOutput{};
  });
  ASSERT_TRUE(id.has_value());
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_EQ(snap.points_total, 5u);
  EXPECT_EQ(snap.points_done, 3u);
}

TEST(JobManager, ProgressClampsBookkeepingCheckpointsToTotal) {
  // Runners may checkpoint more often than there are sweep points (e.g.
  // once per task plus bookkeeping passes); the snapshot must never report
  // done > total.
  JobManager mgr(small_options());
  auto id = mgr.submit("over", [](const JobContext& ctx) {
    ctx.set_points_total(4);
    for (int i = 0; i < 9; ++i) ctx.checkpoint();
    return JobOutput{};
  });
  ASSERT_TRUE(id.has_value());
  const JobSnapshot snap = wait_terminal(mgr, *id);
  EXPECT_EQ(snap.points_total, 4u);
  EXPECT_EQ(snap.points_done, 4u);
}

TEST(JobManager, ProgressIsMonotonicWhileRunning) {
  JobManager mgr(small_options());
  std::atomic<bool> started{false};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto id = mgr.submit("steps", [&started, gate](const JobContext& ctx) {
    ctx.set_points_total(200);
    started = true;
    for (int i = 0; i < 100; ++i) {
      ctx.checkpoint();
      std::this_thread::sleep_for(100us);
    }
    gate.wait();
    return JobOutput{};
  });
  ASSERT_TRUE(id.has_value());
  while (!started.load()) std::this_thread::yield();
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const auto snap = mgr.status(*id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_GE(snap->points_done, last);
    last = snap->points_done;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(last, 0u);
  release.set_value();
  wait_terminal(mgr, *id);
}

TEST(JobManager, HistoryCapEvictsOldestTerminalJobs) {
  JobManager::Options opts = small_options();
  opts.max_queued_jobs = 16;
  opts.max_job_history = 2;
  JobManager mgr(opts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = mgr.submit("h" + std::to_string(i), [](const JobContext&) {
      return JobOutput{};
    });
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  mgr.drain();
  // The two newest terminal jobs survive; older ones are gone but
  // distinguishable from never-issued ids.
  std::size_t retained = 0;
  for (std::uint64_t id : ids) {
    if (mgr.status(id).has_value()) {
      ++retained;
      EXPECT_FALSE(mgr.evicted(id));
    } else {
      EXPECT_TRUE(mgr.evicted(id));
      EXPECT_FALSE(mgr.cancel(id));
    }
  }
  EXPECT_EQ(retained, 2u);
  EXPECT_TRUE(mgr.status(ids.back()).has_value());
  EXPECT_FALSE(mgr.evicted(ids.back() + 100));  // never issued
  EXPECT_FALSE(mgr.evicted(0));                 // ids start at 1
}

TEST(JobManager, UnboundedHistoryWhenCapIsZero) {
  JobManager::Options opts = small_options();
  opts.max_queued_jobs = 16;
  opts.max_job_history = 0;
  JobManager mgr(opts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = mgr.submit("k", [](const JobContext&) { return JobOutput{}; });
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  mgr.drain();
  for (std::uint64_t id : ids) EXPECT_TRUE(mgr.status(id).has_value());
}

TEST(JobManager, PublishesCountersIntoBoundRegistry) {
  obs::MetricsRegistry reg;
  JobManager::Options opts = small_options();
  opts.max_queued_jobs = 16;
  opts.max_job_history = 1;
  opts.metrics = &reg;
  {
    JobManager mgr(opts);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(mgr.submit("ok", [](const JobContext& ctx) {
        ctx.checkpoint();
        return JobOutput{};
      }).has_value());
    }
    ASSERT_TRUE(mgr.submit("bad", [](const JobContext&) -> JobOutput {
      throw std::runtime_error("no");
    }).has_value());
    mgr.drain();
    EXPECT_EQ(reg.counter_value("hmcc_jobs_admitted_total"), 4u);
    EXPECT_EQ(reg.counter_value("hmcc_jobs_done_total"), 3u);
    EXPECT_EQ(reg.counter_value("hmcc_jobs_failed_total"), 1u);
    EXPECT_EQ(reg.counter_value("hmcc_jobs_rejected_total"), 0u);
    EXPECT_EQ(reg.counter_value("hmcc_job_checkpoints_total"), 3u);
    // History cap of 1: three of the four terminal jobs were evicted.
    EXPECT_EQ(reg.counter_value("hmcc_jobs_evicted_total"), 3u);
  }
  // The registry outlives the manager; counters stay readable.
  EXPECT_EQ(reg.counter_value("hmcc_jobs_admitted_total"), 4u);
}

TEST(JobManager, StateStringsAndTerminality) {
  EXPECT_STREQ(to_string(JobState::kQueued), "queued");
  EXPECT_STREQ(to_string(JobState::kRunning), "running");
  EXPECT_STREQ(to_string(JobState::kDone), "done");
  EXPECT_STREQ(to_string(JobState::kFailed), "failed");
  EXPECT_STREQ(to_string(JobState::kTimeout), "timeout");
  EXPECT_STREQ(to_string(JobState::kCancelled), "cancelled");
  EXPECT_FALSE(is_terminal(JobState::kQueued));
  EXPECT_FALSE(is_terminal(JobState::kRunning));
  EXPECT_TRUE(is_terminal(JobState::kDone));
  EXPECT_TRUE(is_terminal(JobState::kFailed));
  EXPECT_TRUE(is_terminal(JobState::kTimeout));
  EXPECT_TRUE(is_terminal(JobState::kCancelled));
}

}  // namespace
}  // namespace hmcc::system
