// Suite registry invariants: both drivers (standalone binaries, bench_suite)
// and the bench-service daemon consume the same registry, so its entries
// must be complete and the drivers must agree byte-for-byte on output.
#include "suite/registry.hpp"

#include <gtest/gtest.h>

#include <set>
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

TEST(SuiteRegistry, KnobInfoCoversEveryAcceptedKey) {
  const auto& knobs = suite_knob_info();
  std::set<std::string> seen;
  const std::set<std::string> kinds = {"uint", "bool", "enum", "string"};
  for (const KnobInfo& k : knobs) {
    SCOPED_TRACE(k.name);
    EXPECT_TRUE(seen.insert(k.name).second) << "duplicate knob";
    EXPECT_TRUE(kinds.count(k.kind)) << "bad kind " << k.kind;
    EXPECT_TRUE(k.scope == "bench" || k.scope == "platform") << k.scope;
    EXPECT_FALSE(k.doc.empty());
  }
  // Exactly the keys the parsers accept: the harness keys plus every
  // platform key, nothing more, nothing missing.
  for (const std::string& key : bench_cli_keys()) {
    EXPECT_TRUE(seen.count(key)) << "harness knob missing: " << key;
  }
  for (const std::string& key : system::platform_cli_keys()) {
    EXPECT_TRUE(seen.count(key)) << "platform knob missing: " << key;
  }
  EXPECT_EQ(knobs.size(),
            bench_cli_keys().size() + system::platform_cli_keys().size());
}

TEST(SuiteRegistry, StandaloneDriverSmokesEveryBench) {
  for (const SuiteBench& b : suite_benches()) {
    SCOPED_TRACE(b.meta.name);
    std::vector<std::string> args = {"bench", kSmokeAccesses, "csv=",
                                     "threads=1"};
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (std::string& a : args) argv.push_back(a.data());
    testing::internal::CaptureStdout();
    const int rc = run_standalone(b, static_cast<int>(argv.size()),
                                  argv.data());
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("=== " + b.meta.title + " ==="), std::string::npos);
    EXPECT_NE(out.find(b.meta.paper_note), std::string::npos);
  }
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
  // Neither bench has an epilogue, so the standalone stdout differs from the
  // in-memory payload only by emit()'s trailing blank line. fig08 is a plain
  // sweep bench; ablation_pipeline also prints a preamble before its header.
  for (const auto& [name, has_preamble] :
       {std::pair{"fig08", false}, std::pair{"ablation_pipeline", true}}) {
    SCOPED_TRACE(name);
    const SuiteBench* bench = find_bench(name);
    ASSERT_NE(bench, nullptr);
    ASSERT_EQ(static_cast<bool>(bench->preamble), has_preamble);
    ASSERT_FALSE(static_cast<bool>(bench->epilogue));

    std::vector<std::string> args = {"bench", kSmokeAccesses, "seed=2",
                                     "csv=", "threads=1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    testing::internal::CaptureStdout();
    ASSERT_EQ(run_standalone(*bench, static_cast<int>(argv.size()),
                             argv.data()),
              0);
    const std::string standalone = testing::internal::GetCapturedStdout();

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
  const auto knobs = knob_metadata_json();
  ASSERT_TRUE(knobs.is_array());
  EXPECT_EQ(knobs.as_array().size(), suite_knob_info().size());
}

}  // namespace
}  // namespace hmcc::bench
