// Suite-level bench registry: every figure/ablation bench declares WHAT it
// computes (a list of independent tasks plus a row formatter), and
// bench_suite decides HOW to schedule it.
//
// run_suite() (the bench_suite binary) submits the selected benches' tasks —
// all of them, or `only=<name>,...` — to ONE persistent thread pool through
// submit_tasks() and collects each bench's results in input order through
// collect_tasks() as its futures resolve.
//
// Because a bench's tasks are pure functions of its BenchEnv and results are
// always collected per bench in input order, the table/CSV output of a bench
// is byte-identical whichever benches ran beside it and whatever threads=
// was.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/descriptor.hpp"
#include "common/thread_pool.hpp"

namespace hmcc::bench {

/// One independently schedulable unit of a bench's work. Tasks of one bench
/// (and of different benches) must not share mutable state: the suite runs
/// them concurrently in one process.
using SuiteTask = std::function<std::any()>;

struct SuiteBench {
  /// Descriptive metadata (registry key, table heading, paper reference,
  /// accesses= default) on the shared descriptor schema.
  /// meta.name doubles as the CSV stem and suite filter key, e.g. "fig08".
  desc::BenchMeta meta{
      .name = {}, .title = {}, .paper_note = {}, .default_accesses = 15000};
  /// False = registered (so --list and only= reach it) but excluded from
  /// bench_suite's run-everything default selection — for benches added
  /// after the suite's stdout+CSV bundle was pinned by the byte-identity
  /// golden.
  bool in_default_suite = true;
  /// Build this bench's tasks for @p env. May be empty (pure-arithmetic
  /// figures compute everything in format()).
  std::function<std::vector<SuiteTask>(const BenchEnv&)> tasks;
  /// Assemble the figure table from the ordered task results (results[i] is
  /// tasks[i]'s return value). Must NOT print: run_suite() prints the
  /// preamble and header only after format() returns, so text printed here
  /// would land out of order — extra text belongs in preamble/epilogue.
  std::function<Table(const BenchEnv&, std::vector<std::any>&)> format;
  /// Optional extra output BEFORE the "=== title ===" header (e.g. the
  /// pipeline ablation's hardware cost sheet). Returned, not printed, for
  /// the same reason as format().
  std::function<std::string(const BenchEnv&, std::vector<std::any>&)>
      preamble;
  /// Optional extra output after the table, its CSV note and the blank
  /// separator line (e.g. fig10's 16B-load share line). Returned, not
  /// printed, for the same reason as format().
  std::function<std::string(const BenchEnv&, std::vector<std::any>&)>
      epilogue;
};

/// All registered benches, in figure order (fig01..fig15, then ablations).
const std::vector<SuiteBench>& suite_benches();

/// Registry lookup by SuiteBench::name; nullptr when unknown.
const SuiteBench* find_bench(const std::string& name);

/// One simulation point of a bench: run_workload(workload, cfg, params).
struct Point {
  std::string workload;
  system::SystemConfig cfg;
  workloads::WorkloadParams params;
};

/// Wrap points into tasks that run run_workload — the shape most figure
/// benches share.
std::vector<SuiteTask> run_point_tasks(std::vector<Point> points);

/// Submit @p tasks to @p pool in order; each future carries its task's
/// result or exception.
std::vector<std::future<std::any>> submit_tasks(ThreadPool& pool,
                                                std::vector<SuiteTask> tasks);

/// Wait for every future, then return the results in input order, or
/// rethrow the lowest-index task's exception once every task has finished.
std::vector<std::any> collect_tasks(
    std::vector<std::future<std::any>> futures);

/// Fetch a task result in format(): results are RunResult for
/// run_point_tasks benches, bench-defined structs otherwise.
template <typename T>
const T& result_as(const std::any& result) {
  return std::any_cast<const T&>(result);
}

/// Write @p body to @p file_name in the directory of env.csv_path through
/// write_file_atomic (common/file_io.hpp). Benches call it only when CSV
/// output is on. @throws std::runtime_error "<path>: <reason>" when the
/// write fails, which fails the bench.
void write_beside_csv(const BenchEnv& env, const std::string& file_name,
                      const std::string& body);

/// The bench_suite command (usage in suite.cpp). Prints every selected
/// bench to stdout and returns a process exit code.
int run_suite(int argc, char** argv);

}  // namespace hmcc::bench
