// bench_suite: the paper's full evaluation as ONE scheduling problem.
//
// Running the benches back to back, one process each, wastes wall-clock
// twice: every run joins its own thread pool before the next one starts (a
// straggler point idles all other workers), and every process re-pays
// thread spawn. run_suite() submits ALL selected benches' tasks to one
// persistent common::ThreadPool up front (submit_tasks), then collects and
// formats each bench's results in selection order (collect_tasks) — bench
// N's table is printed while bench N+1's points are still computing.
//
// A bench's output is the same whichever benches run beside it (same envs,
// same per-bench input-order collection), for any threads=.
//
// Usage: bench_suite [--smoke] [--list] [--metrics PATH] [key=value ...]
//   --smoke         tiny workloads (accesses=500 default) for CI sanity
//   --list          print registered bench names and exit
//   --metrics PATH  write a final Prometheus snapshot of the suite run
//                   (per-bench wall time and task counts) to PATH; stdout
//                   and CSVs are untouched by the flag
//   only=a,b,c      run only the named benches (one figure: only=fig08)
//   csvdir=DIR      write CSVs and BENCH_*.json files into DIR instead of
//                   the working directory
//   nocsv=1         disable CSV output entirely
//   threads=N       pool size, 0..256 (kMaxThreads; 0 = hardware
//                   concurrency), plus every platform and workload knob
//                   (bench_util.hpp)
//
// A token with no '=', an unknown key, an unknown bench in only= or a
// rejected value prints one "error: key: problem" line per problem and
// exits 2 before any thread starts. A bench that throws, or whose CSV or
// BENCH_*.json cannot be written, counts as failed: exit code 1.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "obs/metrics.hpp"
#include "suite/registry.hpp"
#include "system/config_bridge.hpp"

namespace hmcc::bench {

namespace {

constexpr std::uint64_t kSmokeAccesses = 500;
/// Upper bound on threads=: far above any core count this runs on, yet a
/// typo cannot ask the OS for millions of threads.
constexpr std::uint64_t kMaxThreads = 256;

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

void write_beside_csv(const BenchEnv& env, const std::string& file_name,
                      const std::string& body) {
  std::string err = write_file_atomic(
      (std::filesystem::path(env.csv_path).parent_path() / file_name)
          .string(),
      body);
  if (!err.empty()) throw std::runtime_error(std::move(err));
}

int run_suite(int argc, char** argv) {
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

  desc::Args args(static_cast<int>(kv_args.size()), kv_args.data());
  const system::SystemConfig platform = system::platform_from(args);
  workloads::WorkloadParams params;
  args.overlay(workloads::workload_knobs(), params);
  const bool own_accesses = args.config().has("accesses");
  const std::uint64_t threads = args.uint("threads", 0, 0, kMaxThreads);
  const bool nocsv = args.flag("nocsv", false);
  const std::string csvdir = args.text("csvdir", "");
  std::vector<const SuiteBench*> selected;
  const std::string only = args.text("only", "");
  if (only.empty()) {
    for (const SuiteBench& b : suite_benches()) {
      if (b.in_default_suite) selected.push_back(&b);
    }
  } else {
    for (const std::string& name : split_csv_list(only)) {
      const SuiteBench* b = find_bench(name);
      if (b == nullptr) {
        args.fail("only: unknown bench '" + name + "' (see --list)");
      } else {
        selected.push_back(b);
      }
    }
  }
  if (!args.finish()) return 2;

  // Submit the whole suite to one pool before collecting anything: there is
  // no join barrier between benches, only each bench's ordered future
  // collection.
  struct Scheduled {
    const SuiteBench* bench;
    BenchEnv env;
    std::vector<std::future<std::any>> futures;
  };
  ThreadPool pool(static_cast<unsigned>(threads));
  std::vector<Scheduled> scheduled;
  scheduled.reserve(selected.size());
  std::size_t total_tasks = 0;
  for (const SuiteBench* b : selected) {
    Scheduled s{b, {platform, params, {}}, {}};
    if (!own_accesses) {
      s.env.params.accesses_per_core =
          smoke ? kSmokeAccesses : b->meta.default_accesses;
    }
    if (!nocsv) {
      s.env.csv_path =
          (csvdir.empty() ? "" : csvdir + "/") + b->meta.name + ".csv";
    }
    std::vector<SuiteTask> tasks =
        b->tasks ? b->tasks(s.env) : std::vector<SuiteTask>{};
    total_tasks += tasks.size();
    s.futures = submit_tasks(pool, std::move(tasks));
    scheduled.push_back(std::move(s));
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
      std::vector<std::any> results = collect_tasks(std::move(s.futures));
      const Table table = s.bench->format(s.env, results);
      std::string csv_note;
      if (!s.env.csv_path.empty()) {
        const std::string err =
            write_file_atomic(s.env.csv_path, table.to_csv());
        if (err.empty()) {
          csv_note = "(rows written to " + s.env.csv_path + ")\n";
        } else {
          std::fprintf(stderr, "error: %s\n", err.c_str());
          ++failures;
        }
      }
      std::string out;
      if (s.bench->preamble) out = s.bench->preamble(s.env, results);
      out += "=== " + s.bench->meta.title + " ===\n" +
             s.bench->meta.paper_note + "\n" + table.to_ascii() + csv_note +
             "\n";
      if (s.bench->epilogue) out += s.bench->epilogue(s.env, results);
      std::fputs(out.c_str(), stdout);
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
    const std::string err =
        write_file_atomic(metrics_path, suite_reg.render_prometheus());
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace hmcc::bench
