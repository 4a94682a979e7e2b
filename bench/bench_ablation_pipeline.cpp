// Ablation (§4.1): 4-stage vs 10-stage sorting pipeline.
//
// Paper: for n=16, the one-step-per-stage pipeline needs 160 request
// buffers and 63 comparators for a 10-tau latency; grouping steps 2-2-3-3
// into 4 stages cuts that to 64 buffers and far fewer comparators at the
// cost of a 2-tau-per-window initiation penalty. This bench prints both
// cost sheets and measures the end-to-end impact on three workloads.
#include "suite/benches.hpp"

#include "coalescer/pipeline.hpp"

namespace hmcc::bench {

SuiteBench make_ablation_pipeline() {
  SuiteBench b;
  b.meta.name = "ablation_pipeline";
  b.meta.title = "Pipeline shape end-to-end impact";
  b.meta.paper_note =
      "paper: the 2-tau penalty of the 4-stage design is negligible "
      "next to >=100ns memory accesses";
  b.meta.default_accesses = 8000;
  b.tasks = [](const BenchEnv& env) {
    const std::vector<std::string> names = {"stream", "ft", "hpcg"};
    std::vector<Point> points;
    for (const std::string& name : names) {
      system::SystemConfig a = env.base_config();
      a.coalescer.pipeline_shape = coalescer::PipelineShape::kPerStage;
      system::apply_mode(a, system::CoalescerMode::kFull);
      points.push_back({name, a, env.params});

      system::SystemConfig b2 = env.base_config();
      b2.coalescer.pipeline_shape = coalescer::PipelineShape::kPerStep;
      system::apply_mode(b2, system::CoalescerMode::kFull);
      points.push_back({name, b2, env.params});
    }
    return run_point_tasks(std::move(points));
  };
  // The hardware cost sheet precedes the measured impact table on stdout —
  // as a preamble, not a printf inside format(), which runs before the
  // suite prints the bench's header.
  b.preamble = [](const BenchEnv&, std::vector<std::any>&) {
    Table costs({"design", "stages", "buffers", "comparators",
                 "initiation (cycles)", "latency (cycles)"});
    for (auto shape : {coalescer::PipelineShape::kPerStage,
                       coalescer::PipelineShape::kPerStep}) {
      coalescer::PipelinedSorter sorter(16, shape, 2);
      const coalescer::PipelineCost c = sorter.cost();
      costs.add_row(
          {shape == coalescer::PipelineShape::kPerStage ? "4-stage (paper)"
                                                        : "10-stage",
           Table::fmt(std::uint64_t{c.pipeline_stages}),
           Table::fmt(std::uint64_t{c.request_buffers}),
           Table::fmt(std::uint64_t{c.comparators}),
           Table::fmt(std::uint64_t{c.initiation_interval}),
           Table::fmt(std::uint64_t{c.latency})});
    }
    return "=== Ablation: Pipeline Organization (paper SS4.1) ===\n" +
           costs.to_ascii() + "\n";
  };
  b.format = [](const BenchEnv&, std::vector<std::any>& results) {
    Table impact({"benchmark", "4-stage runtime", "10-stage runtime",
                  "runtime delta", "4-stage req latency (ns)",
                  "10-stage req latency (ns)"});
    const std::vector<std::string> names = {"stream", "ft", "hpcg"};
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      const auto& ra = result_as<system::RunResult>(results[2 * i]);
      const auto& rb = result_as<system::RunResult>(results[2 * i + 1]);

      const double delta =
          rb.report.runtime
              ? static_cast<double>(ra.report.runtime) /
                        static_cast<double>(rb.report.runtime) -
                    1.0
              : 0.0;
      impact.add_row(
          {name, Table::fmt(ra.report.runtime), Table::fmt(rb.report.runtime),
           Table::pct(delta),
           Table::fmt(ra.report.coalescer.request_latency.mean() *
                          arch::kNsPerCycle,
                      2),
           Table::fmt(rb.report.coalescer.request_latency.mean() *
                          arch::kNsPerCycle,
                      2)});
    }
    return impact;
  };
  return b;
}

}  // namespace hmcc::bench
