// Suite registry invariants: every entry bench_suite (run_suite) reaches is
// complete, the one fan-out keeps input order, and the command's output does
// not depend on threads=.
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

#include "system/config_bridge.hpp"
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
  BenchEnv env{system::paper_system_config(), {}, {}};
  env.params.accesses_per_core = 100;
  for (const SuiteBench& b : suite_benches()) {
    SCOPED_TRACE(b.meta.name);
    EXPECT_FALSE(b.meta.title.empty());
    EXPECT_FALSE(b.meta.paper_note.empty());
    EXPECT_GT(b.meta.default_accesses, 0u);
    ASSERT_TRUE(static_cast<bool>(b.format));
    ASSERT_TRUE(static_cast<bool>(b.tasks));
    // A non-empty task list is what lets the suite scheduler spread the
    // bench's work over the pool at all.
    EXPECT_FALSE(b.tasks(env).empty());
  }
}

TEST(SuiteRegistry, KnobMetadataCoversEveryAcceptedKey) {
  // Every table key bench_suite accepts (desc::Args applies both tables)
  // carries what a valid assignment needs: a kind with consistent bounds or
  // choices, a scope and a help line.
  std::set<std::string> seen;
  auto walk = [&seen](const auto& knobs) {
    for (const auto& knob : knobs) {
      const desc::KnobMeta& m = knob.meta;
      SCOPED_TRACE(m.key);
      EXPECT_TRUE(seen.insert(m.key).second) << "duplicate knob";
      EXPECT_TRUE(m.scope == "workload" || m.scope == "platform") << m.scope;
      EXPECT_FALSE(m.help.empty());
      switch (m.kind) {
        case desc::KnobKind::kUInt:
          EXPECT_LE(m.min_value, m.max_value);
          break;
        case desc::KnobKind::kEnum:
          EXPECT_FALSE(m.choices.empty());
          break;
        case desc::KnobKind::kBool:
        case desc::KnobKind::kString:
          EXPECT_TRUE(m.choices.empty());
          break;
        default:
          ADD_FAILURE() << "bad kind " << static_cast<int>(m.kind);
      }
    }
  };
  walk(workloads::workload_knobs());
  walk(system::platform_knobs());
}

// submit_tasks()/collect_tasks(): the suite's one fan-out.

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
TEST(SuiteRegistry, OnlyRunsEveryBenchAlone) {
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

TEST(SuiteRegistry, EpilogueFollowsTheTable) {
  // fig10's epilogue follows its table, so the captured output of the run
  // carries it.
  const SuiteBench* bench = find_bench("fig10");
  ASSERT_NE(bench, nullptr);
  ASSERT_TRUE(static_cast<bool>(bench->epilogue));
  std::string out;
  ASSERT_EQ(run_suite_captured({"only=fig10", kSmokeAccesses, "nocsv=1"}, out),
            0);
  EXPECT_NE(out.find("16B-load share:"), std::string::npos);
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

TEST(SuiteRegistry, FailedCsvWriteFailsTheBench) {
  // The table still prints; the unwritten CSV is a named error and a failed
  // bench, not a silently dropped "(rows written ...)" note.
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "hmcc_no_such_dir")
          .string();
  std::filesystem::remove_all(dir);
  std::string out;
  testing::internal::CaptureStderr();
  const int rc = run_suite_captured({"only=fig01", "csvdir=" + dir}, out);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("error: " + dir + "/fig01.csv: No such file or directory"),
            std::string::npos)
      << err;
  EXPECT_EQ(out.find("rows written"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(SuiteRegistry, MalformedThreadsOrNocsvFailsBeforeAnyBenchRuns) {
  // threads= and nocsv= parse strictly: a value that is not a number, does
  // not fit the thread cap, or is not a boolean is a named error and exit
  // code 2, not a silent fallback that still runs (and writes CSVs).
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hmcc_suite_bad_keys";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& [arg, key] : {std::pair{"threads=abc", "threads"},
                                 std::pair{"threads=4294967297", "threads"},
                                 std::pair{"nocsv=maybe", "nocsv"}}) {
    SCOPED_TRACE(arg);
    std::string out;
    testing::internal::CaptureStderr();
    const int rc = run_suite_captured(
        {"only=fig01", arg, "csvdir=" + dir.string()}, out);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.find(std::string("error: ") + key + ": "), std::string::npos)
        << err;
    EXPECT_TRUE(out.empty()) << out;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hmcc::bench
