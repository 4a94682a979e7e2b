#include "suite/registry.hpp"

#include <exception>
#include <utility>

#include "suite/benches.hpp"

namespace hmcc::bench {

const std::vector<SuiteBench>& suite_benches() {
  static const std::vector<SuiteBench> benches = {
      make_fig01(),
      make_fig02(),
      make_fig08(),
      make_fig09(),
      make_fig10(),
      make_fig11(),
      make_fig12(),
      make_fig13(),
      make_fig14(),
      make_fig15(),
      make_ablation_pipeline(),
      make_ablation_hmc_paging(),
      make_ablation_scheduler(),
      make_ablation_warp(),
      make_ablation_hybrid(),
  };
  return benches;
}

const SuiteBench* find_bench(const std::string& name) {
  for (const SuiteBench& b : suite_benches()) {
    if (b.meta.name == name) return &b;
  }
  return nullptr;
}

std::vector<SuiteTask> run_point_tasks(std::vector<Point> points) {
  std::vector<SuiteTask> tasks;
  tasks.reserve(points.size());
  for (Point& p : points) {
    tasks.push_back([p = std::move(p)] {
      return std::any(system::run_workload(p.workload, p.cfg, p.params));
    });
  }
  return tasks;
}

std::vector<std::future<std::any>> submit_tasks(ThreadPool& pool,
                                                std::vector<SuiteTask> tasks) {
  std::vector<std::future<std::any>> futures;
  futures.reserve(tasks.size());
  for (SuiteTask& t : tasks) futures.push_back(pool.submit(std::move(t)));
  return futures;
}

std::vector<std::any> collect_tasks(
    std::vector<std::future<std::any>> futures) {
  std::vector<std::any> results;
  results.reserve(futures.size());
  std::exception_ptr error;
  for (std::future<std::any>& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace hmcc::bench
