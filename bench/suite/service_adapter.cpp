#include "suite/service_adapter.hpp"

#include <any>
#include <limits>
#include <utility>

namespace hmcc::bench {

system::JobOutput run_bench_job(const SuiteBench& bench,
                                const Config& overrides,
                                const system::JobContext& ctx) {
  BenchEnv env = make_env(overrides, bench.meta.name.c_str(),
                          bench.meta.default_accesses);
  // Service jobs never write files; the CSV rows travel in the payload.
  env.csv_path.clear();

  ctx.checkpoint();
  std::vector<SuiteTask> tasks =
      bench.tasks ? bench.tasks(env) : std::vector<SuiteTask>{};
  // Each task is one progress point for GET /jobs/<id>; the checkpoint
  // counter over-counts by the bookkeeping checkpoints around the tasks and
  // the snapshot clamps it to this total.
  ctx.set_points_total(tasks.size());
  // The checkpoint before each task is the cooperative timeout/cancel
  // boundary: after a timeout every remaining task throws there, running
  // tasks finish, and the JobManager maps the JobTimeoutError that
  // collect_tasks() rethrows to JobState::kTimeout.
  std::vector<std::any> results = collect_tasks(submit_tasks(
      ctx.pool(), std::move(tasks), [&ctx] { ctx.checkpoint(); }));

  ctx.checkpoint();
  const Table table = bench.format(env, results);
  system::JobOutput out;
  out.text = render_bench(bench, env, table, results, "");
  out.csv = table.to_csv();
  return out;
}

std::vector<service::ServiceBench> service_benches() {
  std::vector<service::ServiceBench> out;
  const auto& benches = suite_benches();
  out.reserve(benches.size());
  for (const SuiteBench& b : benches) {
    service::ServiceBench sb;
    sb.name = b.meta.name;
    sb.metadata = service::json::Object{
        {"name", b.meta.name},
        {"title", b.meta.title},
        {"paper_note", b.meta.paper_note},
        {"default_accesses",
         static_cast<std::int64_t>(b.meta.default_accesses)},
    };
    sb.run = [&b](const Config& overrides, const system::JobContext& ctx) {
      return run_bench_job(b, overrides, ctx);
    };
    out.push_back(std::move(sb));
  }
  return out;
}

service::json::Value knob_metadata_json() {
  // Straight off the two knob tables (bench_knobs() + platform_knobs()) —
  // the SAME tables make_env()/overlay_config() parse with, so the daemon
  // can never advertise a knob the parser rejects or vice versa.
  service::json::Array knobs;
  auto append = [&knobs](const std::vector<desc::KnobMeta>& metas) {
    for (const desc::KnobMeta& m : metas) {
      service::json::Object o{
          {"name", m.key},
          {"kind", std::string(desc::to_string(m.kind))},
          {"scope", m.scope},
          {"doc", m.help},
          {"default", m.default_value},
      };
      if (m.kind == desc::KnobKind::kUInt) {
        o.emplace_back("min", static_cast<std::int64_t>(m.min_value));
        // JSON numbers are signed 64-bit here; an unbounded knob omits max.
        if (m.max_value <= static_cast<std::uint64_t>(
                               std::numeric_limits<std::int64_t>::max())) {
          o.emplace_back("max", static_cast<std::int64_t>(m.max_value));
        }
      }
      if (m.kind == desc::KnobKind::kEnum) {
        service::json::Array choices;
        for (const std::string& c : m.choices) choices.push_back(c);
        o.emplace_back("choices", std::move(choices));
      }
      knobs.push_back(std::move(o));
    }
  };
  append(bench_knob_metadata());
  append(system::platform_knob_metadata());
  return knobs;
}

}  // namespace hmcc::bench
