// Suite registry invariants: bench_suite (run_suite) and the bench-service
// daemon consume the same registry, so its entries must be complete and the
// two must agree byte-for-byte on output.
#include "suite/registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "suite/service_adapter.hpp"
#include "system/config_bridge.hpp"
#include "system/job_manager.hpp"

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
