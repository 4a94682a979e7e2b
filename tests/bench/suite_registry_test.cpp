// Suite registry invariants: bench_suite (run_suite) and the bench-service
// daemon consume the same registry, so its entries must be complete and the
// two must agree byte-for-byte on output.
#include "suite/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "suite/service_adapter.hpp"
#include "system/config_bridge.hpp"
#include "system/job_manager.hpp"
#include "trace/codec.hpp"

namespace hmcc::bench {
namespace {

// Small but nonzero workload: enough for every bench to produce real rows
// without dominating the tier-1 test budget (bench_suite --smoke uses 500).
constexpr const char* kSmokeAccesses = "accesses=400";

TEST(SuiteRegistry, NamesAreUniqueAndLookupWorks) {
  std::set<std::string> names;
  for (const SuiteBench& b : suite_benches()) {
    EXPECT_TRUE(names.insert(b.meta.name).second) << "duplicate bench " << b.meta.name;
    EXPECT_EQ(find_bench(b.meta.name), &b);
  }
  EXPECT_GE(names.size(), 12u);
  EXPECT_EQ(find_bench("no-such-bench"), nullptr);
}

TEST(SuiteRegistry, EveryBenchIsFullyPopulated) {
  Config cli;
  cli.set("accesses", "100");
  for (const SuiteBench& b : suite_benches()) {
    SCOPED_TRACE(b.meta.name);
    EXPECT_FALSE(b.meta.title.empty());
    EXPECT_FALSE(b.meta.paper_note.empty());
    EXPECT_GT(b.meta.default_accesses, 0u);
    ASSERT_TRUE(static_cast<bool>(b.format));
    ASSERT_TRUE(static_cast<bool>(b.tasks));
    // A non-empty task list is what lets the suite scheduler and the
    // service's cooperative timeout see the bench's work at all.
    const BenchEnv env = make_env(cli, b.meta.name.c_str(), b.meta.default_accesses);
    EXPECT_FALSE(b.tasks(env).empty());
  }
}

TEST(SuiteRegistry, KnobMetadataCoversEveryAcceptedKey) {
  const service::json::Value knobs = knob_metadata_json();
  ASSERT_TRUE(knobs.is_array());
  std::set<std::string> seen;
  const std::set<std::string> kinds = {"uint", "bool", "enum", "string"};
  for (const service::json::Value& k : knobs.as_array()) {
    const std::string& name = k.find("name")->as_string();
    const std::string& kind = k.find("kind")->as_string();
    const std::string& scope = k.find("scope")->as_string();
    SCOPED_TRACE(name);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate knob";
    EXPECT_TRUE(kinds.count(kind)) << "bad kind " << kind;
    EXPECT_TRUE(scope == "bench" || scope == "platform") << scope;
    EXPECT_FALSE(k.find("doc")->as_string().empty());
  }
  // Exactly the keys the parsers accept: the harness keys plus every
  // platform key, nothing more, nothing missing.
  for (const std::string& key : bench_cli_keys()) {
    EXPECT_TRUE(seen.count(key)) << "harness knob missing: " << key;
  }
  for (const std::string& key : system::platform_cli_keys()) {
    EXPECT_TRUE(seen.count(key)) << "platform knob missing: " << key;
  }
  EXPECT_EQ(knobs.as_array().size(),
            bench_cli_keys().size() + system::platform_cli_keys().size());
  // threads= sizes bench_suite's pool; a daemon job has no use for it.
  EXPECT_FALSE(seen.count("threads"));
}

// submit_tasks()/collect_tasks(): the one fan-out both drivers use.

std::vector<SuiteTask> index_tasks(std::size_t n,
                                   std::function<std::any(std::size_t)> fn) {
  std::vector<SuiteTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([fn, i] { return fn(i); });
  }
  return tasks;
}

TEST(SuiteTasks, ResultsComeBackInInputOrder) {
  ThreadPool pool(4);
  const std::vector<std::any> out = collect_tasks(submit_tasks(
      pool, index_tasks(64, [](std::size_t i) { return std::any(i * i); })));
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(result_as<std::size_t>(out[i]), i * i);
  }
}

TEST(SuiteTasks, PropagatesWorkerExceptions) {
  // A failing task does not stop the others: collect_tasks() rethrows only
  // after every task has finished.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      (void)collect_tasks(submit_tasks(
          pool, index_tasks(8,
                            [&ran](std::size_t i) {
                              ++ran;
                              if (i == 5) throw std::runtime_error("boom");
                              return std::any(i);
                            }))),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_THROW((void)collect_tasks(submit_tasks(
                   pool, run_point_tasks({{"no-such-workload",
                                           system::paper_system_config(),
                                           workloads::WorkloadParams{}}}))),
               std::invalid_argument);
}

TEST(SuiteTasks, RethrowsLowestFailingIndexDeterministically) {
  // Index 3 fails last in wall-clock time, yet its exception must win over
  // the later indices' so error reports don't depend on scheduling.
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(4);
    try {
      (void)collect_tasks(submit_tasks(
          pool, index_tasks(64, [](std::size_t i) {
            if (i == 3) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            if (i == 3 || i == 7 || i == 50) {
              throw std::runtime_error(std::to_string(i));
            }
            return std::any(i);
          })));
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "round " << round;
    }
  }
}

TEST(SuiteTasks, ThrowingBeforeEachSkipsItsTask) {
  ThreadPool pool(2);
  std::atomic<int> checks{0};
  std::atomic<int> ran{0};
  auto count_task = [&ran](std::size_t) {
    ++ran;
    return std::any(0);
  };
  // Without a throw, before_each runs once before every task.
  EXPECT_EQ(collect_tasks(submit_tasks(pool, index_tasks(6, count_task),
                                       [&checks] { ++checks; }))
                .size(),
            6u);
  EXPECT_EQ(checks.load(), 6);
  EXPECT_EQ(ran.load(), 6);
  // A throwing before_each stops its task from running at all.
  ran = 0;
  EXPECT_THROW((void)collect_tasks(submit_tasks(
                   pool, index_tasks(6, count_task),
                   [] { throw std::runtime_error("stop"); })),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
}

// Run the bench_suite command in-process and hand back its stdout.
int run_suite_captured(std::vector<std::string> args, std::string& out) {
  args.insert(args.begin(), "bench_suite");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  const int rc = run_suite(static_cast<int>(argv.size()), argv.data());
  out = testing::internal::GetCapturedStdout();
  return rc;
}

// Each bench run on its own, as `bench_suite only=<name>` runs one figure.
TEST(SuiteRegistry, StandaloneDriverSmokesEveryBench) {
  for (const SuiteBench& b : suite_benches()) {
    SCOPED_TRACE(b.meta.name);
    std::string out;
    testing::internal::CaptureStderr();
    const int rc = run_suite_captured(
        {"only=" + b.meta.name, kSmokeAccesses, "nocsv=1", "threads=1"}, out);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(err.find("warning"), std::string::npos) << err;
    EXPECT_NE(out.find("=== " + b.meta.title + " ==="), std::string::npos);
    EXPECT_NE(out.find(b.meta.paper_note), std::string::npos);
  }
}

TEST(SuiteRegistry, ThreadCountDoesNotChangeResults) {
  std::string serial;
  std::string parallel;
  ASSERT_EQ(run_suite_captured({"only=fig08,fig13", kSmokeAccesses, "nocsv=1",
                                "threads=1"},
                               serial),
            0);
  ASSERT_EQ(run_suite_captured({"only=fig08,fig13", kSmokeAccesses, "nocsv=1",
                                "threads=4"},
                               parallel),
            0);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// The data rows of every ASCII table in @p out, as (first cell, the rest).
std::vector<std::pair<std::string, std::string>> table_rows(
    const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::pair<std::string, std::string>> rows;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const bool is_header =
        i + 1 < lines.size() && lines[i + 1].rfind("|-", 0) == 0;
    if (line.rfind("| ", 0) != 0 || is_header) continue;
    const std::size_t bar = line.find('|', 1);
    std::string name = line.substr(2, bar - 2);
    name.erase(name.find_last_not_of(' ') + 1);
    rows.emplace_back(name, line.substr(bar));
  }
  return rows;
}

TEST(SuiteRegistry, Fig09TakesBothSeriesFromTheReplayedTrace) {
  // Under trace_replay= every workload row runs the same recorded trace, so
  // the raw and the coalesced columns must agree across all twelve rows.
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "hmcc_fig09_replay.hmct")
          .string();
  workloads::WorkloadParams params;
  params.accesses_per_core = 300;
  params.num_cores = system::paper_system_config().hierarchy.num_cores;
  ASSERT_TRUE(
      trace::write_file(workloads::make_workload("ep")->generate(params), path)
          .ok());
  std::string out;
  ASSERT_EQ(run_suite_captured({"only=fig09", "accesses=300", "nocsv=1",
                                "threads=2", "trace_replay=" + path},
                               out),
            0);
  std::filesystem::remove(path);
  auto rows = table_rows(out);
  ASSERT_EQ(rows.size(), workloads::workload_names().size() + 1);
  rows.pop_back();  // the average row
  for (const auto& [name, cells] : rows) {
    EXPECT_EQ(cells, rows.front().second) << name;
  }
}

TEST(SuiteRegistry, Fig10BatchesByThePlatformWindow) {
  std::string by_default;
  std::string by_eight;
  ASSERT_EQ(run_suite_captured({"only=fig10", kSmokeAccesses, "nocsv=1"},
                               by_default),
            0);
  ASSERT_EQ(run_suite_captured({"only=fig10", kSmokeAccesses, "nocsv=1",
                                "window=8"},
                               by_eight),
            0);
  EXPECT_NE(by_default, by_eight);
}

TEST(SuiteRegistry, AblationJsonLandsBesideTheCsv) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hmcc_suite_csvdir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string out;
  ASSERT_EQ(run_suite_captured({"only=ablation_hybrid", "accesses=300",
                                "threads=2", "csvdir=" + dir.string()},
                               out),
            0);
  EXPECT_TRUE(std::filesystem::exists(dir / "ablation_hybrid.csv"));
  std::ifstream json(dir / "BENCH_hybrid.json");
  ASSERT_TRUE(json.good()) << "BENCH_hybrid.json missing from csvdir";
  std::stringstream body;
  body << json.rdbuf();
  EXPECT_EQ(body.str().rfind("{\"bench\": \"ablation_hybrid\"", 0), 0u);
  EXPECT_FALSE(std::filesystem::exists(dir / "BENCH_hybrid.json.tmp"));
  std::filesystem::remove_all(dir);
}

// Run a bench through the service adapter on a real JobManager (the only
// way to obtain a JobContext) and hand back the job's output.
system::JobOutput run_via_service(const SuiteBench& bench,
                                  const Config& overrides) {
  system::JobManager mgr(
      {/*sweep_threads=*/1, /*job_workers=*/1, /*max_queued_jobs=*/4,
       /*default_timeout=*/std::chrono::milliseconds{0}});
  auto id = mgr.submit(bench.meta.name, [&](const system::JobContext& ctx) {
    return run_bench_job(bench, overrides, ctx);
  });
  EXPECT_TRUE(id.has_value());
  mgr.drain();
  auto snap = mgr.status(*id);
  EXPECT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, system::JobState::kDone) << snap->error;
  return snap->output;
}

TEST(SuiteRegistry, ServiceDriverMatchesStandaloneByteForByte) {
  // With CSV output off, `bench_suite only=<name>` stdout differs from the
  // in-memory payload only by the suite's trailing blank line. fig08 is a
  // plain sweep bench; ablation_pipeline also prints a preamble before its
  // header.
  for (const auto& [name, has_preamble] :
       {std::pair{"fig08", false}, std::pair{"ablation_pipeline", true}}) {
    SCOPED_TRACE(name);
    const SuiteBench* bench = find_bench(name);
    ASSERT_NE(bench, nullptr);
    ASSERT_EQ(static_cast<bool>(bench->preamble), has_preamble);
    ASSERT_FALSE(static_cast<bool>(bench->epilogue));

    std::string standalone;
    ASSERT_EQ(run_suite_captured({std::string("only=") + name, kSmokeAccesses,
                                  "seed=2", "nocsv=1", "threads=1"},
                                 standalone),
              0);

    Config overrides;
    overrides.set("accesses", "400");
    overrides.set("seed", "2");
    const system::JobOutput job = run_via_service(*bench, overrides);

    EXPECT_EQ(job.text + "\n", standalone);
    EXPECT_FALSE(job.csv.empty());
    EXPECT_NE(job.csv.find('\n'), std::string::npos);
  }
}

TEST(SuiteRegistry, ServiceJobCapturesEpilogueInPayload) {
  const SuiteBench* bench = find_bench("fig10");
  ASSERT_NE(bench, nullptr);
  ASSERT_TRUE(static_cast<bool>(bench->epilogue));
  Config overrides;
  overrides.set("accesses", "400");
  const system::JobOutput job = run_via_service(*bench, overrides);
  EXPECT_NE(job.text.find("16B-load share:"), std::string::npos);
}

TEST(SuiteRegistry, ServiceBenchesMirrorTheRegistry) {
  const auto wrapped = service_benches();
  const auto& benches = suite_benches();
  ASSERT_EQ(wrapped.size(), benches.size());
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    SCOPED_TRACE(benches[i].meta.name);
    EXPECT_EQ(wrapped[i].name, benches[i].meta.name);
    ASSERT_TRUE(wrapped[i].metadata.is_object());
    const auto* name = wrapped[i].metadata.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->as_string(), benches[i].meta.name);
    const auto* accesses = wrapped[i].metadata.find("default_accesses");
    ASSERT_NE(accesses, nullptr);
    EXPECT_EQ(accesses->as_int(),
              static_cast<std::int64_t>(benches[i].meta.default_accesses));
    EXPECT_TRUE(static_cast<bool>(wrapped[i].run));
  }
}

}  // namespace
}  // namespace hmcc::bench
