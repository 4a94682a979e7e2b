// Benchmark harness: runs one named workload through the full system::System
// and prints one JSON line of measurements on stdout.
//
//   hmcc_perfbench e2e    workload=<name> seed=<n> seconds=<s> [accesses=<n>]
//   hmcc_perfbench rss    workload=<name> seed=<n> [accesses=<n>]
//   hmcc_perfbench traced workload=<name> seed=<n> seconds=<s> spans=<path>
//                         [accesses=<n>]
//
// seconds= is required by e2e and traced. accesses= replaces the workload's
// committed size; only the smoke test sets it.
//
// e2e     untraced repetitions (generate + construct + run) for `seconds`
//         after one discarded warm-up; medians of host times.
// rss     one repetition, then the process's peak resident set.
// traced  per-layer numbers: spans around every call into a layer, the
//         modeled counters from System::metrics(), and isolated replays of
//         each layer on inputs captured from the full run.
//
// Every System::run is checked (drain, conservation, access count, and
// identical simulated counters across repetitions); in traced mode every
// replay pass is checked too. A failed check is reported in "failures" and
// makes the process exit with status 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "common/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "system/system.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using hmcc::system::SystemConfig;
using hmcc::system::SystemReport;
using perfbench::Miss;
using perfbench::SpanLog;

/// Fewest timed repetitions (and replay passes) behind any median.
constexpr std::size_t kMinReps = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string json_string(const std::string& s) {
  return '"' + hmcc::obs::json_escape(s) + '"';
}

std::string hex_digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// One repetition's measurements.
struct Rep {
  double generate_s = 0.0;
  double construct_s = 0.0;
  double run_s = 0.0;
  SystemReport report;
  std::uint64_t events = 0;  ///< kernel events fired by run()
  std::uint64_t allocs = 0;  ///< heap allocations during run()
  std::map<std::string, double> modeled;  ///< per-layer registry values
};

/// Runs and checks repetitions of one workload; accumulates the outcome.
class Runner {
 public:
  Runner(const perfbench::WorkloadSpec& spec,
         hmcc::workloads::WorkloadParams params)
      : spec_(spec), cfg_(perfbench::make_config(spec)), params_(params) {
    if (!hmcc::workloads::make_workload(spec_.generator)) {
      throw std::invalid_argument("unknown generator '" + spec_.generator +
                                  "'");
    }
  }

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] hmcc::trace::MultiTrace generate() const {
    return hmcc::workloads::make_workload(spec_.generator)->generate(params_);
  }

  /// generate + construct + run. @p spans non-null = a traced repetition
  /// (spans recorded, metrics registry on). @p capture receives the miss
  /// stream when non-null.
  Rep run(SpanLog* spans, std::uint32_t rep_id, std::vector<Miss>* capture);

  /// Record the outcome of one checked operation.
  void count(const std::vector<std::string>& problems,
             const std::string& what) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& p : problems) failures_.push_back(what + ": " + p);
  }

  [[nodiscard]] const std::string& digest() const noexcept { return digest_; }

  /// {"attempted": .., "failed": .., "failures": [..]} members, no braces.
  [[nodiscard]] std::string outcome_json() const {
    std::string s = "\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      s += (i ? ", " : "") + json_string(failures_[i]);
    }
    return s + "]";
  }
  [[nodiscard]] bool ok() const noexcept { return failed_ == 0; }

 private:
  const perfbench::WorkloadSpec& spec_;
  SystemConfig cfg_;
  hmcc::workloads::WorkloadParams params_;
  std::string reference_text_;  ///< Prometheus text of the first repetition
  std::string digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

Rep Runner::run(SpanLog* spans, std::uint32_t rep_id,
                std::vector<Miss>* capture) {
  Rep r;
  SpanLog::Scope rep_span(spans, "rep", rep_id);
  SystemConfig cfg = cfg_;
  cfg.obs.metrics = spans != nullptr;

  const auto t0 = Clock::now();
  hmcc::trace::MultiTrace trace;
  {
    SpanLog::Scope s(spans, "workloads.generate", rep_id);
    trace = generate();
  }
  const auto t1 = Clock::now();
  std::optional<hmcc::system::System> sys;
  {
    SpanLog::Scope s(spans, "system.construct", rep_id);
    sys.emplace(cfg);
  }
  const auto t2 = Clock::now();
  if (capture != nullptr) {
    capture->clear();
    hmcc::system::System* raw = &*sys;
    sys->set_miss_hook(
        [capture, raw](const hmcc::coalescer::CoalescerRequest& req,
                       std::uint32_t) {
          capture->push_back({raw->kernel().now(), req});
        });
  }
  const std::uint64_t allocs0 = perfbench::allocations();
  const auto t3 = Clock::now();
  {
    SpanLog::Scope s(spans, "system.run", rep_id);
    r.report = sys->run(trace);
  }
  const auto t4 = Clock::now();
  r.allocs = perfbench::allocations() - allocs0;
  r.generate_s = seconds_between(t0, t1);
  r.construct_s = seconds_between(t1, t2);
  r.run_s = seconds_between(t3, t4);
  r.events = sys->kernel().events_fired();

  // Checks (outside every timed region).
  hmcc::obs::MetricsRegistry local;
  hmcc::obs::MetricsRegistry* reg = sys->metrics();
  if (reg == nullptr) {
    sys->publish_metrics(local);
    reg = &local;
  }
  const std::string text = reg->render_prometheus();
  const SystemReport& rep = r.report;
  std::vector<std::string> problems;
  if (!rep.drained) problems.push_back("run did not drain");
  const std::uint64_t expected =
      perfbench::count_split_accesses(trace, cfg.coalescer.line_bytes);
  if (rep.cpu_accesses != expected) {
    problems.push_back("cpu_accesses " + std::to_string(rep.cpu_accesses) +
                       " != line-split trace accesses " +
                       std::to_string(expected));
  }
  if (cfg.mem.backend == hmcc::mem::BackendKind::kHybrid &&
      rep.mem_tier.fast_hits + rep.mem_tier.slow_accesses !=
          rep.memory_requests) {
    problems.push_back("fast_hits + slow_accesses != memory_requests");
  }
  if (reg->counter_value("hmcc_mshr_allocations_total") !=
      reg->counter_value("hmcc_mshr_frees_total")) {
    problems.push_back("MSHR allocations != frees");
  }
  if (reference_text_.empty()) {
    reference_text_ = text;
    digest_ = hex_digest(text);
  } else if (text != reference_text_) {
    problems.push_back("simulated counters differ from the first repetition");
  }
  count(problems, "rep " + std::to_string(rep_id));

  if (spans != nullptr) {
    auto counter = [reg](const char* name,
                         const hmcc::obs::Labels& labels = {}) {
      return static_cast<double>(reg->counter_value(name, labels));
    };
    auto gauge = [reg](const char* name) { return reg->gauge(name).value(); };
    auto miss_rate = [&counter](const char* level) {
      const hmcc::obs::Labels l = {{"level", level}};
      const double misses = counter("hmcc_cache_misses_total", l);
      return ratio(misses, counter("hmcc_cache_hits_total", l) + misses);
    };
    r.modeled = {
        {"sim.events_per_access",
         ratio(static_cast<double>(r.events),
               static_cast<double>(rep.cpu_accesses))},
        {"cache.l1_miss_rate", miss_rate("l1")},
        {"cache.llc_miss_rate", miss_rate("llc")},
        {"coalescer.mshr_rejects_full",
         counter("hmcc_mshr_rejects_full_total")},
        {"coalescer.crq_merges", counter("hmcc_coalescer_crq_merges_total")},
        {"coalescer.requests_per_packet",
         ratio(counter("hmcc_coalescer_raw_requests_total"),
               counter("hmcc_coalescer_memory_requests_total"))},
        {"coalescer.timeout_flushes",
         counter("hmcc_coalescer_timeout_flushes_total")},
        {"coalescer.front_latency_cycles",
         gauge("hmcc_coalescer_front_latency_cycles_avg")},
        {"coalescer.request_latency_cycles",
         gauge("hmcc_coalescer_request_latency_cycles_avg")},
        {"hmc.latency_cycles", gauge("hmcc_hmc_latency_cycles_avg")},
        {"hmc.bank_conflicts", counter("hmcc_hmc_bank_conflicts_total")},
        {"hmc.wire_efficiency", gauge("hmcc_hmc_bandwidth_efficiency")},
        {"mem.fast_hit_rate", gauge("hmcc_mem_fast_hit_rate")},
        {"mem.promotions", counter("hmcc_mem_promotions_total")},
        {"mem.migration_bytes", counter("hmcc_mem_migration_bytes_total")},
        {"mem.demand_latency_cycles",
         gauge("hmcc_mem_demand_latency_mean_cycles")},
    };
  }
  return r;
}

std::string metrics_json(const std::map<std::string, double>& metrics) {
  std::string s = "{";
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    s += (s.size() > 1 ? ", " : "") + json_string(name) + ": " + buf;
  }
  return s + "}";
}

/// The end-to-end metrics the untraced report derives from one run.
void add_modeled_e2e(const SystemReport& rep,
                     std::map<std::string, double>& m) {
  m["sim_cycles"] = static_cast<double>(rep.runtime);
  m["requests_per_miss"] =
      ratio(static_cast<double>(rep.memory_requests),
            static_cast<double>(rep.llc_misses + rep.writebacks));
  m["bandwidth_efficiency"] = rep.payload_bandwidth_efficiency();
}

int run_e2e(Runner& runner, double seconds) {
  (void)runner.run(nullptr, 0, nullptr);  // warm-up, discarded
  std::vector<double> setup;
  std::vector<double> run;
  SystemReport last;
  const auto start = Clock::now();
  for (std::uint32_t rep = 1; run.size() < kMinReps ||
                              seconds_between(start, Clock::now()) < seconds;
       ++rep) {
    const Rep r = runner.run(nullptr, rep, nullptr);
    setup.push_back(r.generate_s + r.construct_s);
    run.push_back(r.run_s);
    last = r.report;
  }
  std::map<std::string, double> m;
  m["accesses_per_s"] =
      ratio(static_cast<double>(last.cpu_accesses), median(run));
  m["setup_s"] = median(setup);
  add_modeled_e2e(last, m);
  std::printf("{\"mode\": \"e2e\", %s, \"digest\": \"%s\", \"metrics\": %s}\n",
              runner.outcome_json().c_str(), runner.digest().c_str(),
              metrics_json(m).c_str());
  return runner.ok() ? 0 : 1;
}

int run_rss(Runner& runner) {
  (void)runner.run(nullptr, 0, nullptr);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::map<std::string, double> m;
  m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf("{\"mode\": \"rss\", %s, \"digest\": \"%s\", \"metrics\": %s}\n",
              runner.outcome_json().c_str(), runner.digest().c_str(),
              metrics_json(m).c_str());
  return runner.ok() ? 0 : 1;
}

int run_traced(Runner& runner, const std::string& workload, double seconds,
               const std::string& spans_path) {
  namespace pb = perfbench;
  const SystemConfig& cfg = runner.config();
  SpanLog spans(workload);
  const auto start = Clock::now();

  // Full runs: a warm-up that captures the miss stream, then untraced and
  // traced repetitions alternated so host drift hits both alike.
  std::vector<Miss> misses;
  const Rep warm = runner.run(&spans, 0, &misses);
  std::vector<double> untraced_run, generate, construct, run, allocs;
  for (std::uint32_t rep = 1;
       run.size() < kMinReps ||
       seconds_between(start, Clock::now()) < seconds / 2;
       ++rep) {
    untraced_run.push_back(runner.run(nullptr, rep, nullptr).run_s);
    const Rep t = runner.run(&spans, rep, nullptr);
    generate.push_back(t.generate_s);
    construct.push_back(t.construct_s);
    run.push_back(t.run_s);
    allocs.push_back(static_cast<double>(t.allocs));
  }
  const SystemReport& rep = warm.report;
  const auto accesses = static_cast<double>(rep.cpu_accesses);

  // Isolated replays of each layer on the captured inputs. Pass 0 is a
  // warm-up that also captures the packets the coalescer issues; later
  // passes are timed.
  const std::vector<pb::SplitAccess> split =
      pb::split_accesses(runner.generate(), cfg.coalescer.line_bytes);
  const std::vector<pb::Window> windows0 = pb::cut_windows(cfg, misses);
  std::vector<pb::IssuedPacket> issued;
  std::size_t mshr_packets = 0;
  std::map<std::string, std::vector<double>> times;  // span name -> seconds
  for (std::uint32_t pass = 0; pass <= kMinReps ||
                               seconds_between(start, Clock::now()) < seconds;
       ++pass) {
    SpanLog::Scope pass_span(&spans, "replays", pass);
    auto timed = [&](const char* name, auto&& call) {
      SpanLog::Scope s(&spans, name, pass);
      const auto t0 = Clock::now();
      call();
      if (pass > 0) times[name].push_back(seconds_between(t0, Clock::now()));
    };
    std::vector<std::string> problems;
    auto expect = [&problems](bool ok, const char* what) {
      if (!ok) problems.emplace_back(what);
    };

    std::uint64_t cached = 0;
    timed("cache.replay",
          [&] { cached = pb::replay_cache(cfg.hierarchy, split); });
    expect(cached == rep.cpu_accesses,
           "cache replay access count != cpu_accesses");

    pb::CoalescerReplay c;
    timed("coalescer.replay", [&] {
      c = pb::replay_coalescer(cfg, misses, pass == 0 ? &issued : nullptr);
    });
    expect(c.drained, "coalescer replay did not drain");
    expect(c.raw_requests == misses.size() &&
               c.raw_requests == rep.coalescer.raw_requests,
           "coalescer replay raw requests != full run's");
    expect(c.completions == c.raw_requests,
           "coalescer replay lost a completion");
    expect(c.packets == issued.size(), "coalescer replay packet count changed");

    std::vector<pb::Window> windows = windows0;
    std::vector<hmcc::coalescer::CoalescedPacket> packets;
    if (cfg.coalescer.enable_dmc) {
      timed("coalescer.sort", [&] { pb::replay_sort(cfg, windows); });
      timed("coalescer.dmc", [&] { packets = pb::replay_dmc(cfg, windows); });
    } else {
      packets = pb::line_packets(cfg, misses);
    }
    std::uint64_t constituents = 0;
    for (const auto& p : packets) constituents += p.constituents.size();
    expect(constituents == misses.size(), "DMC replay constituents != misses");
    mshr_packets = packets.size();

    pb::MshrReplay mr;
    timed("coalescer.mshr", [&] { mr = pb::replay_mshr(cfg, packets); });
    expect(mr.drained && mr.packets == packets.size() &&
               mr.constituents == misses.size() &&
               mr.completed == misses.size(),
           "MSHR replay did not consume and complete every packet");

    pb::BackendReplay hr;
    timed("hmc.replay", [&] {
      hr = pb::replay_backend(cfg, hmcc::mem::MemConfig{}, issued);
    });
    expect(hr.drained && hr.submitted == issued.size() &&
               hr.completed == hr.submitted,
           "HMC replay did not complete every issued packet");

    if (cfg.mem.tiered()) {
      pb::BackendReplay mm;
      timed("mem.replay",
            [&] { mm = pb::replay_backend(cfg, cfg.mem, issued); });
      expect(mm.drained && mm.submitted == issued.size() &&
                 mm.completed == mm.submitted,
             "hybrid replay did not complete every issued packet");
    }
    runner.count(problems, "replay pass " + std::to_string(pass));
  }

  // Layers off this workload's path (no sorter, no hybrid tier) have no
  // timed passes and report 0.
  auto ns_per = [&times](const char* span, std::size_t n) {
    const std::vector<double>& s = times[span];
    return n && !s.empty() ? median(s) * 1e9 / static_cast<double>(n) : 0.0;
  };
  std::map<std::string, double> m = warm.modeled;
  m["workloads.generate_s"] = median(generate);
  m["system.construct_s"] = median(construct);
  m["system.run_s"] = median(run);
  m["system.allocs_per_access"] = ratio(median(allocs), accesses);
  m["sim.ns_per_event"] =
      ratio(median(run) * 1e9, static_cast<double>(warm.events));
  m["cache.ns_per_access"] = ns_per("cache.replay", split.size());
  m["coalescer.ns_per_request"] = ns_per("coalescer.replay", misses.size());
  m["coalescer.sort.ns_per_window"] = ns_per("coalescer.sort", windows0.size());
  m["coalescer.dmc.ns_per_window"] = ns_per("coalescer.dmc", windows0.size());
  m["coalescer.mshr.ns_per_packet"] = ns_per("coalescer.mshr", mshr_packets);
  m["hmc.ns_per_packet"] = ns_per("hmc.replay", issued.size());
  m["mem.ns_per_packet"] = ns_per("mem.replay", issued.size());
  m["tracing.overhead"] = ratio(median(run), median(untraced_run)) - 1.0;

  if (!spans.write_chrome_json(spans_path)) {
    runner.count({"cannot write " + spans_path}, "spans");
  }
  std::printf(
      "{\"mode\": \"traced\", %s, \"digest\": \"%s\", \"metrics\": %s}\n",
      runner.outcome_json().c_str(), runner.digest().c_str(),
      metrics_json(m).c_str());
  return runner.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s e2e|rss|traced workload=<name> seed=<n> "
                         "[seconds=<s>] [accesses=<n>] [spans=<path>]\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  hmcc::Config cli;
  std::vector<std::string> rejected;
  cli.parse_args(argc - 1, argv + 1, &rejected);  // skips the mode word
  if (!rejected.empty()) {
    std::fprintf(stderr, "error: malformed argument '%s'\n",
                 rejected[0].c_str());
    return 2;
  }
  try {
    const std::string workload = cli.get_string("workload", "");
    const perfbench::WorkloadSpec& spec = perfbench::find_workload(workload);
    hmcc::workloads::WorkloadParams params;
    params.seed = cli.get_uint("seed", 1);
    params.accesses_per_core = cli.get_uint("accesses", spec.accesses_per_core);
    Runner runner(spec, params);
    if (mode == "rss") return run_rss(runner);
    if (mode != "e2e" && mode != "traced") {
      throw std::invalid_argument("unknown mode '" + mode + "'");
    }
    if (!cli.has("seconds")) {
      throw std::invalid_argument(mode + " needs seconds=<s>");
    }
    const double seconds = cli.get_double("seconds", 0.0);
    if (mode == "e2e") return run_e2e(runner, seconds);
    return run_traced(runner, workload, seconds,
                      cli.get_string("spans", "spans.json"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return 2;
}
