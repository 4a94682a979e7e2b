// Asynchronous execution of named jobs with bounded admission, per-job
// wall-clock timeouts and cooperative cancellation.
//
// The bench-service daemon (src/service) submits one job per HTTP POST and
// polls its state; a job's own work fans out over the manager's task pool so
// a single job still uses every simulation worker. Two pools keep that
// deadlock-free:
//
//  - the dispatch pool runs job ORCHESTRATION (job_workers threads). Its
//    bounded queue is the admission limit: ThreadPool::try_submit() refusing
//    a job is exactly the "return 429" signal the service wants, with no
//    extra bookkeeping that could drift out of sync with the pool;
//  - the task pool executes each job's TASKS. A job thread may block on
//    task futures, never on the dispatch pool, so a job cannot starve the
//    sub-tasks it is waiting for.
//
// Timeouts and cancellation are cooperative: simulation points are not
// preemptible, so JobContext::checkpoint() is called between units of work
// (the bench glue checks before every task) and throws once the wall-clock
// budget is gone or cancel() was called. After a timeout every remaining
// task throws at its checkpoint, tasks already running finish, and the job
// reports JobState::kTimeout.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"

namespace hmcc::obs {
class Counter;
class MetricsRegistry;
}  // namespace hmcc::obs

namespace hmcc::system {

/// Thrown by JobContext::checkpoint() once the job's wall-clock budget is
/// exhausted; the manager maps it to JobState::kTimeout.
class JobTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by JobContext::checkpoint() after JobManager::cancel(); the
/// manager maps it to JobState::kCancelled.
class JobCancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class JobState {
  kQueued,     ///< admitted, waiting for a dispatch worker
  kRunning,    ///< executing on a dispatch worker
  kDone,       ///< finished, output valid
  kFailed,     ///< threw; error holds the message
  kTimeout,    ///< exceeded its wall-clock budget
  kCancelled,  ///< cancelled before or during execution
};

[[nodiscard]] const char* to_string(JobState s) noexcept;

/// True for the three terminal states (kDone/kFailed/kTimeout/kCancelled).
[[nodiscard]] bool is_terminal(JobState s) noexcept;

/// What a job hands back: the text `bench_suite only=<name>` would print and
/// the CSV rows it would write, both kept in memory (a service job never
/// touches the filesystem or stdout).
struct JobOutput {
  std::string text;
  std::string csv;
};

/// Shared progress cell: written by the job thread (via JobContext), read
/// by status() pollers without taking the manager mutex on the hot path.
struct JobProgress {
  std::atomic<std::uint64_t> done{0};   ///< checkpoints passed so far
  std::atomic<std::uint64_t> total{0};  ///< planned points (0 = unknown)
};

/// Per-job view handed to the job function: the shared task pool plus the
/// cooperative timeout/cancel checkpoint.
class JobContext {
 public:
  /// Task pool shared by all jobs.
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel_->load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool timed_out() const noexcept {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Declare how many work points the job plans to run; GET /jobs/<id>
  /// then reports points_done / points_total. Optional — 0 means unknown.
  void set_points_total(std::uint64_t n) const noexcept {
    progress_->total.store(n, std::memory_order_relaxed);
  }

  /// Throws JobCancelledError/JobTimeoutError when the job should stop;
  /// call between units of work (the bench glue calls it before each task).
  /// Each call that does not throw advances the job's progress counter by
  /// one point, so pollers see points_done grow monotonically while the job
  /// runs and a stopped job reports only the points it actually started.
  void checkpoint() const;

 private:
  friend class JobManager;
  JobContext(ThreadPool* pool, std::atomic<bool>* cancel,
             JobProgress* progress, obs::Counter* checkpoint_counter,
             std::chrono::steady_clock::time_point deadline, bool has_deadline)
      : pool_(pool), cancel_(cancel), progress_(progress),
        checkpoint_counter_(checkpoint_counter), deadline_(deadline),
        has_deadline_(has_deadline) {}

  ThreadPool* pool_;
  std::atomic<bool>* cancel_;
  JobProgress* progress_;
  obs::Counter* checkpoint_counter_;  ///< process-wide tally (may be null)
  std::chrono::steady_clock::time_point deadline_;
  bool has_deadline_;
};

using JobFn = std::function<JobOutput(const JobContext&)>;

/// Immutable copy of a job's state for status queries.
struct JobSnapshot {
  std::uint64_t id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  JobOutput output;            ///< valid when state == kDone
  std::string error;           ///< set for kFailed/kTimeout/kCancelled
  std::chrono::milliseconds timeout{0};  ///< 0 = unlimited
  /// Checkpoints the job passed so far, clamped to points_total when a
  /// total is known. Monotonically non-decreasing across polls.
  std::uint64_t points_done = 0;
  std::uint64_t points_total = 0;  ///< 0 = job never declared a plan
};

class JobManager {
 public:
  struct Options {
    unsigned sweep_threads = 0;   ///< task pool size (0 = hardware)
    unsigned job_workers = 1;     ///< jobs orchestrated concurrently
    std::size_t max_queued_jobs = 8;  ///< admission bound (excl. running)
    std::chrono::milliseconds default_timeout{0};  ///< 0 = unlimited
    /// Terminal jobs kept for status queries; beyond this the oldest
    /// terminal jobs are evicted (status() then reports "evicted").
    /// 0 keeps history unbounded.
    std::size_t max_job_history = 256;
    /// When set, the manager publishes `hmcc_jobs_*` counters (admitted,
    /// rejected, per-terminal-state, evicted, checkpoints) into this
    /// registry. The registry must outlive the manager. nullptr = off.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit JobManager(const Options& opts);

  /// Drains: every admitted job runs to a terminal state before workers
  /// join — a submitted job is never abandoned half-done.
  ~JobManager() = default;

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admit @p fn as a job. Returns its id, or std::nullopt when the
  /// admission queue is at its bound (the caller should shed load — the
  /// HTTP layer answers 429). @p timeout overrides the default budget.
  std::optional<std::uint64_t> submit(
      std::string name, JobFn fn,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Snapshot of a job; std::nullopt for unknown ids.
  [[nodiscard]] std::optional<JobSnapshot> status(std::uint64_t id) const;

  /// True when @p id was once a live id but its record has been dropped
  /// from the bounded history. (Ids refused at admission — the 429 path —
  /// also report true: their ids were allocated but never returned to any
  /// client, so no well-behaved caller can ask about them.)
  [[nodiscard]] bool evicted(std::uint64_t id) const;

  /// Request cancellation. Queued jobs never start; running jobs stop at
  /// their next checkpoint. Returns false for unknown or already-terminal
  /// jobs.
  bool cancel(std::uint64_t id);

  struct Occupancy {
    std::size_t queued = 0;    ///< admitted, not yet started
    std::size_t running = 0;
    std::size_t finished = 0;  ///< any terminal state
    unsigned job_workers = 0;
    std::size_t max_queued_jobs = 0;
    unsigned sweep_threads = 0;
    std::size_t sweep_active = 0;  ///< sweep tasks executing now
    std::size_t sweep_queued = 0;  ///< sweep tasks waiting for a worker
  };
  [[nodiscard]] Occupancy occupancy() const;

  /// Block until every job admitted before the call reached a terminal
  /// state (SIGTERM drain: stop submitting first, then drain()).
  void drain();

 private:
  struct Job {
    std::string name;
    JobState state = JobState::kQueued;
    JobOutput output;
    std::string error;
    std::chrono::milliseconds timeout{0};
    /// shared_ptr: the orchestration thread holds the flag alive even if a
    /// (hypothetical) future API erased the map entry mid-run.
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    std::shared_ptr<JobProgress> progress = std::make_shared<JobProgress>();
  };

  void run_job(std::uint64_t id, const JobFn& fn);
  /// Drop the oldest terminal jobs beyond max_job_history. Caller holds
  /// mutex_. Running/queued jobs are never evicted.
  void evict_history_locked();

  Options opts_;
  /// Stable counter handles resolved once at construction (or all null).
  struct JobCounters {
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* done = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* timed_out = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* evicted = nullptr;
    obs::Counter* checkpoints = nullptr;
  };
  JobCounters counters_;
  // Declaration order is load-bearing for shutdown: dispatch_ must be
  // destroyed FIRST (its dtor drains queued jobs, whose run_job() touches
  // jobs_/mutex_ and fans out over tasks_), so it is declared LAST.
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_id_ = 1;
  ThreadPool tasks_;
  ThreadPool dispatch_;
};

}  // namespace hmcc::system
