// bench_suite: the paper's full evaluation as ONE scheduling problem.
//
// Running the figure binaries back to back wastes wall-clock twice: every
// binary joins its own thread pool before the next one starts (a straggler
// point idles all other workers), and every process re-pays thread spawn.
// This driver submits ALL registered benches' tasks to one persistent
// common::ThreadPool up front, then collects and formats each bench's
// results in registration order as its futures resolve — bench N's table is
// printed while bench N+1's points are still computing.
//
// Tasks are SUBMITTED in longest-processing-time order (estimated as task
// count x accesses per bench), so the heaviest benches start first and a
// straggler point doesn't idle the pool at the end of the suite.
//
// Output is byte-identical to running the standalone binaries one by one
// (same envs, same per-bench input-order collection, LPT only reorders the
// work queue), for any threads=.
//
// Usage: bench_suite [--smoke] [--list] [--metrics PATH] [key=value ...]
//   --smoke         tiny workloads (accesses=500 default) for CI sanity
//   --list          print registered bench names and exit
//   --metrics PATH  write a final Prometheus snapshot of the suite run
//                   (per-bench wall time and task counts) to PATH; stdout
//                   and CSVs are untouched by the flag
//   only=a,b,c      run only the named benches
//   csvdir=DIR      write CSVs into DIR instead of the working directory
//   nocsv=1         disable CSV output entirely
//   threads=N       pool size (0 = hardware_concurrency), plus every
//                   bench/platform knob from bench_util.hpp
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <numeric>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "suite/registry.hpp"

namespace {

using namespace hmcc;
using namespace hmcc::bench;

constexpr std::uint64_t kSmokeAccesses = 500;

/// Atomic snapshot write (temp file + rename), same publication discipline
/// as obs::TraceWriter: a crash mid-write never leaves a torn file behind.
bool write_text_file(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags first; everything else is key=value shared by all benches.
  bool smoke = false;
  bool list = false;
  std::string metrics_path;
  std::vector<const char*> kv_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --metrics requires a path argument\n");
        return 2;
      }
      metrics_path = argv[++i];
    } else {
      kv_args.push_back(argv[i]);
    }
  }
  if (list) {
    for (const SuiteBench& b : suite_benches()) {
      std::printf("%s\n", b.meta.name.c_str());
    }
    return 0;
  }

  Config cli;
  std::vector<std::string> rejected;
  cli.parse_args(static_cast<int>(kv_args.size()), kv_args.data(), &rejected);
  warn_unrecognized(cli, rejected, {"only", "csvdir", "nocsv"});

  // Platform knobs are shared by every bench of the run: validate them once
  // up front (one line per problem) instead of throwing from a worker mid
  // suite.
  {
    system::SystemConfig probe = system::paper_system_config();
    std::vector<std::string> errors;
    if (!system::overlay_config(cli, probe, errors)) {
      for (const std::string& e : errors) {
        std::fprintf(stderr, "error: %s\n", e.c_str());
      }
      return 2;
    }
  }

  // Select benches.
  std::vector<const SuiteBench*> selected;
  const std::string only = cli.get_string("only", "");
  if (only.empty()) {
    for (const SuiteBench& b : suite_benches()) {
      if (b.in_default_suite) selected.push_back(&b);
    }
  } else {
    for (const std::string& name : split_csv_list(only)) {
      const SuiteBench* b = find_bench(name);
      if (b == nullptr) {
        std::fprintf(stderr, "error: unknown bench '%s' in only= (see "
                             "--list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(b);
    }
  }

  const bool nocsv = cli.get_bool("nocsv", false);
  const std::string csvdir = cli.get_string("csvdir", "");

  // Build every bench's env and task list, then submit the whole suite to
  // one pool before collecting anything: there is no join barrier between
  // benches, only each bench's ordered future collection.
  struct Scheduled {
    const SuiteBench* bench;
    BenchEnv env;
    std::vector<SuiteTask> tasks;
    std::vector<std::future<std::any>> futures;
  };
  const auto threads =
      static_cast<unsigned>(cli.get_uint("threads", 0));
  ThreadPool pool(threads);
  std::vector<Scheduled> scheduled;
  scheduled.reserve(selected.size());
  std::size_t total_tasks = 0;
  for (const SuiteBench* b : selected) {
    Scheduled s{b,
                make_env(cli, b->meta.name.c_str(),
                         smoke ? kSmokeAccesses : b->meta.default_accesses),
                {},
                {}};
    if (nocsv) {
      s.env.csv_path.clear();
    } else if (!csvdir.empty() && !cli.has("csv")) {
      s.env.csv_path = csvdir + "/" + b->meta.name + ".csv";
    }
    s.tasks = b->tasks ? b->tasks(s.env) : std::vector<SuiteTask>{};
    total_tasks += s.tasks.size();
    scheduled.push_back(std::move(s));
  }

  // Longest-processing-time submission order: heavy benches enter the queue
  // first so a straggler point never sits behind the whole suite on a wide
  // machine. Cost is estimated as task count x accesses (every task of a
  // figure is one sweep point over roughly `accesses` simulated requests).
  // Only the SUBMISSION order changes — collection and output below stay in
  // selection order, so stdout and CSVs are byte-identical to the
  // registration-order schedule.
  std::vector<std::size_t> submit_order(scheduled.size());
  std::iota(submit_order.begin(), submit_order.end(), std::size_t{0});
  auto estimated_cost = [&](std::size_t i) {
    const Scheduled& s = scheduled[i];
    return static_cast<std::uint64_t>(s.tasks.size()) *
           s.env.params.accesses_per_core;
  };
  std::stable_sort(submit_order.begin(), submit_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimated_cost(a) > estimated_cost(b);
                   });
  for (std::size_t idx : submit_order) {
    Scheduled& s = scheduled[idx];
    s.futures.reserve(s.tasks.size());
    for (SuiteTask& t : s.tasks) s.futures.push_back(pool.submit(std::move(t)));
    s.tasks.clear();
  }
  std::fprintf(stderr, "bench_suite: %zu benches, %zu points, %u threads\n",
               scheduled.size(), total_tasks, pool.threads());

  // Observability snapshot: wall time is measured suite-start -> bench
  // collection complete, so a bench's number includes the queueing it
  // actually experienced. Collected only when --metrics was given; the
  // output paths below never see the flag.
  const auto suite_start = std::chrono::steady_clock::now();
  obs::MetricsRegistry suite_reg;

  int failures = 0;
  for (Scheduled& s : scheduled) {
    const std::size_t bench_tasks = s.futures.size();
    try {
      std::vector<std::any> results;
      results.reserve(s.futures.size());
      for (std::future<std::any>& f : s.futures) results.push_back(f.get());
      const Table table = s.bench->format(s.env, results);
      if (s.bench->preamble) {
        std::fputs(s.bench->preamble(s.env, results).c_str(), stdout);
      }
      emit(table, s.env, s.bench->meta.title.c_str(),
           s.bench->meta.paper_note.c_str());
      if (s.bench->epilogue) {
        std::fputs(s.bench->epilogue(s.env, results).c_str(), stdout);
      }
      if (!metrics_path.empty()) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - suite_start;
        const obs::Labels labels{{"bench", s.bench->meta.name}};
        suite_reg
            .gauge_family("hmcc_suite_bench_seconds",
                          "Suite start to bench collection complete")
            .with(labels)
            .set(elapsed.count());
        suite_reg
            .counter_family("hmcc_suite_bench_tasks",
                            "Sweep points the bench scheduled")
            .with(labels)
            .inc(bench_tasks);
      }
    } catch (const std::exception& e) {
      // Drain this bench's remaining futures so later benches still report.
      for (std::future<std::any>& f : s.futures) {
        if (f.valid()) {
          try {
            (void)f.get();
          } catch (...) {
          }
        }
      }
      std::fprintf(stderr, "error: bench %s failed: %s\n",
                   s.bench->meta.name.c_str(), e.what());
      ++failures;
    }
  }

  if (!metrics_path.empty()) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - suite_start;
    suite_reg.gauge("hmcc_suite_wall_seconds", "Total suite wall time")
        .set(elapsed.count());
    suite_reg
        .counter("hmcc_suite_points_total", "Sweep points across all benches")
        .inc(total_tasks);
    suite_reg.counter("hmcc_suite_benches_total", "Benches run")
        .inc(scheduled.size());
    suite_reg.counter("hmcc_suite_failures_total", "Benches that failed")
        .inc(static_cast<std::uint64_t>(failures));
    suite_reg
        .gauge("hmcc_suite_threads", "Thread pool size used for the sweep")
        .set(static_cast<double>(pool.threads()));
    if (!write_text_file(metrics_path, suite_reg.render_prometheus())) {
      std::fprintf(stderr, "error: could not write metrics to %s\n",
                   metrics_path.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
