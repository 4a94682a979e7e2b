// Event-kernel microbench: events/sec of the production Kernel vs the
// reference binary-heap + std::function scheduler it replaced.
//
// Two patterns bracket the simulator's real behavior:
//   * schedule-heavy — a population of self-rescheduling actors with small
//     pseudo-random delays (the System/coalescer/HMC steady state: every
//     fired event schedules a successor). Exercises the O(1) ring path and
//     the allocation-free callback storage; callbacks capture 40 bytes, the
//     size class of a device-completion closure, which std::function must
//     heap-allocate.
//   * run_until-heavy — bursts of scheduling interleaved with many small
//     run_until() slices plus occasional far-future (overflow-heap) events,
//     the pattern of trace-driven stepping.
//
// Results are printed and written as one JSON document, one object per
// pattern, to BENCH_kernel.json (knob json=<path>, "" disables) so the
// performance trajectory is tracked across PRs. Knobs: events=<n> (default
// 1000000), json=<path>; any other key, or a bad events= value, exits 2.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/descriptor.hpp"
#include "common/file_io.hpp"
#include "sim/kernel.hpp"
#include "sim/reference_kernel.hpp"

namespace {

using hmcc::Cycle;

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

/// Self-rescheduling event. 40 bytes of captured state: a kernel pointer, a
/// shared budget pointer, and three words of payload — representative of the
/// simulator's hot callbacks and past std::function's inline buffer.
template <typename K>
struct Actor {
  K* kernel;
  std::uint64_t* budget;
  std::uint64_t rng;
  std::uint64_t acc0;
  std::uint64_t acc1;

  void operator()() {
    if (*budget == 0) return;
    --*budget;
    rng = rng * kLcgMul + kLcgAdd;
    acc0 += rng >> 7;
    acc1 ^= acc0;
    const Cycle delay = (rng >> 33) & 255u;
    kernel->schedule(delay, Actor(*this));
  }
};

template <typename K>
double schedule_heavy(std::uint64_t events) {
  K kernel;
  std::uint64_t budget = events;
  for (std::uint64_t i = 0; i < 512; ++i) {
    kernel.schedule(i & 63u,
                    Actor<K>{&kernel, &budget, i * kLcgMul + kLcgAdd, 0, 0});
  }
  const auto t0 = std::chrono::steady_clock::now();
  kernel.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

template <typename K>
double run_until_heavy(std::uint64_t events) {
  K kernel;
  std::uint64_t fired = 0;
  std::uint64_t rng = 0x2545F4914F6CDD1DULL;
  std::uint64_t scheduled = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (scheduled < events) {
    for (int j = 0; j < 64 && scheduled < events; ++j) {
      rng = rng * kLcgMul + kLcgAdd;
      const Cycle delay = (rng >> 33) & 127u;
      kernel.schedule(delay, [&fired] { ++fired; });
      ++scheduled;
    }
    // A trickle of far-future events keeps the overflow path honest.
    if ((scheduled & 4095u) == 0) {
      rng = rng * kLcgMul + kLcgAdd;
      kernel.schedule(8192u + ((rng >> 40) & 8191u), [&fired] { ++fired; });
      ++scheduled;
    }
    kernel.run_until(kernel.now() + 24);
  }
  kernel.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (fired != scheduled) std::fprintf(stderr, "lost events!\n");
  return std::chrono::duration<double>(t1 - t0).count();
}

struct PatternResult {
  const char* name;
  std::uint64_t events;
  double kernel_s;
  double reference_s;
};

}  // namespace

int main(int argc, char** argv) {
  hmcc::desc::Args args(argc, argv);
  const std::uint64_t events = args.uint("events", 1000000, 1, 1ULL << 32);
  const std::string json_path = args.text("json", "BENCH_kernel.json");
  if (!args.finish()) return 2;

  std::vector<PatternResult> results;
  results.push_back({"schedule_heavy", events,
                     schedule_heavy<hmcc::Kernel>(events),
                     schedule_heavy<hmcc::sim::ReferenceKernel>(events)});
  results.push_back({"run_until_heavy", events,
                     run_until_heavy<hmcc::Kernel>(events),
                     run_until_heavy<hmcc::sim::ReferenceKernel>(events)});

  std::printf("=== Kernel Throughput (%llu events/pattern) ===\n",
              static_cast<unsigned long long>(events));
  std::string json = "{\"bench\": \"kernel_throughput\", \"events\": " +
                     std::to_string(events) + ", \"patterns\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PatternResult& r = results[i];
    const double eps = static_cast<double>(r.events) / r.kernel_s;
    const double ref_eps = static_cast<double>(r.events) / r.reference_s;
    const double speedup = eps / ref_eps;
    std::printf(
        "%-16s kernel %10.0f ev/s | reference heap %10.0f ev/s | %.2fx\n",
        r.name, eps, ref_eps, speedup);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"events_per_sec\": %.0f, "
                  "\"reference_events_per_sec\": %.0f, \"speedup\": %.3f}",
                  i ? ", " : "", r.name, eps, ref_eps, speedup);
    json += buf;
  }
  json += "]}\n";
  if (!json_path.empty()) {
    const std::string err = hmcc::write_file_atomic(json_path, json);
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    std::printf("(written to %s)\n", json_path.c_str());
  }
  return 0;
}
