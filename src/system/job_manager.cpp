#include "system/job_manager.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace hmcc::system {

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kTimeout: return "timeout";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool is_terminal(JobState s) noexcept {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kTimeout || s == JobState::kCancelled;
}

void JobContext::checkpoint() const {
  // Test before counting: every task of a stopped job still reaches its
  // checkpoint, and none of them may count as a point done.
  if (cancelled()) throw JobCancelledError("job cancelled");
  if (timed_out()) throw JobTimeoutError("job wall-clock budget exceeded");
  progress_->done.fetch_add(1, std::memory_order_relaxed);
  if (checkpoint_counter_ != nullptr) checkpoint_counter_->inc();
}

JobManager::JobManager(const Options& opts)
    : opts_(opts),
      tasks_(opts.sweep_threads),
      dispatch_(opts.job_workers == 0 ? 1 : opts.job_workers,
                opts.max_queued_jobs) {
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    counters_.admitted =
        &reg.counter("hmcc_jobs_admitted_total", "Jobs accepted for execution");
    counters_.rejected = &reg.counter(
        "hmcc_jobs_rejected_total", "Jobs refused at the admission bound");
    counters_.done =
        &reg.counter("hmcc_jobs_done_total", "Jobs finished successfully");
    counters_.failed =
        &reg.counter("hmcc_jobs_failed_total", "Jobs that threw");
    counters_.timed_out = &reg.counter(
        "hmcc_jobs_timeout_total", "Jobs that exhausted their budget");
    counters_.cancelled =
        &reg.counter("hmcc_jobs_cancelled_total", "Jobs cancelled");
    counters_.evicted = &reg.counter(
        "hmcc_jobs_evicted_total", "Terminal jobs dropped from history");
    counters_.checkpoints = &reg.counter(
        "hmcc_job_checkpoints_total", "Cooperative checkpoints passed");
  }
}

std::optional<std::uint64_t> JobManager::submit(
    std::string name, JobFn fn,
    std::optional<std::chrono::milliseconds> timeout) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    Job job;
    job.name = std::move(name);
    job.timeout = timeout.value_or(opts_.default_timeout);
    jobs_.emplace(id, std::move(job));
  }
  // The dispatch pool's bounded queue IS the admission decision: a refusal
  // must leave no trace of the job behind.
  auto fut = dispatch_.try_submit(
      [this, id, fn = std::move(fn)] { run_job(id, fn); });
  if (!fut) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(id);
    if (counters_.rejected != nullptr) counters_.rejected->inc();
    return std::nullopt;
  }
  if (counters_.admitted != nullptr) counters_.admitted->inc();
  return id;
}

void JobManager::run_job(std::uint64_t id, const JobFn& fn) {
  std::shared_ptr<std::atomic<bool>> cancel;
  std::shared_ptr<JobProgress> progress;
  std::chrono::milliseconds timeout{0};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& job = jobs_.at(id);
    cancel = job.cancel;
    progress = job.progress;
    if (cancel->load(std::memory_order_relaxed)) {
      job.state = JobState::kCancelled;
      job.error = "cancelled before start";
      if (counters_.cancelled != nullptr) counters_.cancelled->inc();
      evict_history_locked();
      return;
    }
    job.state = JobState::kRunning;
    timeout = job.timeout;
  }

  // The wall-clock budget starts when the job STARTS, not when it was
  // admitted: a job queued behind a long-running one must not time out
  // without having run a single task.
  const bool has_deadline = timeout.count() > 0;
  const JobContext ctx(&tasks_, cancel.get(), progress.get(),
                       counters_.checkpoints,
                       std::chrono::steady_clock::now() + timeout,
                       has_deadline);
  JobState state = JobState::kDone;
  JobOutput output;
  std::string error;
  try {
    output = fn(ctx);
  } catch (const JobTimeoutError& e) {
    state = JobState::kTimeout;
    error = e.what();
  } catch (const JobCancelledError& e) {
    state = JobState::kCancelled;
    error = e.what();
  } catch (const std::exception& e) {
    state = JobState::kFailed;
    error = e.what();
  } catch (...) {
    state = JobState::kFailed;
    error = "unknown exception";
  }

  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = jobs_.at(id);
  job.state = state;
  job.output = std::move(output);
  job.error = std::move(error);
  switch (state) {
    case JobState::kDone:
      if (counters_.done != nullptr) counters_.done->inc();
      break;
    case JobState::kFailed:
      if (counters_.failed != nullptr) counters_.failed->inc();
      break;
    case JobState::kTimeout:
      if (counters_.timed_out != nullptr) counters_.timed_out->inc();
      break;
    case JobState::kCancelled:
      if (counters_.cancelled != nullptr) counters_.cancelled->inc();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // unreachable: run_job only writes terminal states
  }
  evict_history_locked();
}

void JobManager::evict_history_locked() {
  if (opts_.max_job_history == 0) return;
  std::size_t terminal = 0;
  for (const auto& [id, job] : jobs_) {
    (void)id;
    if (is_terminal(job.state)) ++terminal;
  }
  // std::map iterates in ascending id order, so the first terminal entries
  // found are the oldest ones.
  for (auto it = jobs_.begin();
       terminal > opts_.max_job_history && it != jobs_.end();) {
    if (is_terminal(it->second.state)) {
      it = jobs_.erase(it);
      --terminal;
      if (counters_.evicted != nullptr) counters_.evicted->inc();
    } else {
      ++it;
    }
  }
}

std::optional<JobSnapshot> JobManager::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  JobSnapshot snap;
  snap.id = id;
  snap.name = it->second.name;
  snap.state = it->second.state;
  snap.output = it->second.output;
  snap.error = it->second.error;
  snap.timeout = it->second.timeout;
  // Relaxed loads: a poll may observe a point the job just passed, never a
  // torn or decreasing value. Clamp to the declared plan so over-counted
  // bookkeeping checkpoints (before/after the task loop) don't show >100%.
  const JobProgress& p = *it->second.progress;
  snap.points_total = p.total.load(std::memory_order_relaxed);
  snap.points_done = p.done.load(std::memory_order_relaxed);
  if (snap.points_total > 0) {
    snap.points_done = std::min(snap.points_done, snap.points_total);
  }
  return snap;
}

bool JobManager::evicted(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return id > 0 && id < next_id_ && jobs_.find(id) == jobs_.end();
}

bool JobManager::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second.state)) return false;
  it->second.cancel->store(true, std::memory_order_relaxed);
  return true;
}

JobManager::Occupancy JobManager::occupancy() const {
  Occupancy occ;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      (void)id;
      if (job.state == JobState::kQueued) {
        ++occ.queued;
      } else if (job.state == JobState::kRunning) {
        ++occ.running;
      } else {
        ++occ.finished;
      }
    }
  }
  occ.job_workers = dispatch_.threads();
  occ.max_queued_jobs = opts_.max_queued_jobs;
  occ.sweep_threads = tasks_.threads();
  occ.sweep_active = tasks_.active();
  occ.sweep_queued = tasks_.queued();
  return occ;
}

void JobManager::drain() { dispatch_.wait_idle(); }

}  // namespace hmcc::system
