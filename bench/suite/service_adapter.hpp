// Adapter from the suite registry to the bench-service daemon: every
// registered SuiteBench becomes a ServiceBench whose run function executes
// the bench entirely in memory (no CSV files, no stdout) on the
// JobManager's task pool, and whose metadata feeds GET /benches.
#pragma once

#include <vector>

#include "service/service.hpp"
#include "suite/registry.hpp"

namespace hmcc::bench {

/// Run @p bench with @p overrides applied on top of its defaults, fanning
/// tasks out over @p ctx's task pool. ctx.checkpoint() runs before every
/// task, so per-job timeouts and cancellation take effect between
/// simulation points. Returns the text `bench_suite only=<name>` prints,
/// minus its CSV note and blank separator line, plus the CSV rows; nothing
/// touches the filesystem.
system::JobOutput run_bench_job(const SuiteBench& bench,
                                const Config& overrides,
                                const system::JobContext& ctx);

/// Every registered bench wrapped for BenchService.
std::vector<service::ServiceBench> service_benches();

/// Every knob a bench accepts, as the JSON array BenchService serves under
/// "knobs": the harness keys (accesses, seed, ...) then every platform key
/// overlay_config() consumes, in table order.
service::json::Value knob_metadata_json();

}  // namespace hmcc::bench
