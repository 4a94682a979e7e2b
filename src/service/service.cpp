#include "service/service.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace hmcc::service {
namespace {

HttpResponse json_response(int status, const json::Value& v) {
  HttpResponse resp;
  resp.status = status;
  resp.body = v.dump();
  return resp;
}

HttpResponse error_json(int status, const std::string& message) {
  return json_response(status, json::Object{{"error", message}});
}

/// "/jobs/<id>" -> id; nullopt for anything that is not a positive integer.
std::optional<std::uint64_t> parse_job_id(const std::string& target,
                                          const std::string& prefix) {
  if (target.size() <= prefix.size() || target.rfind(prefix, 0) != 0) {
    return std::nullopt;
  }
  const std::string tail = target.substr(prefix.size());
  std::uint64_t id = 0;
  const auto [end, ec] =
      std::from_chars(tail.data(), tail.data() + tail.size(), id);
  if (ec != std::errc() || end != tail.data() + tail.size() || id == 0) {
    return std::nullopt;
  }
  return id;
}

/// JSON scalar -> Config string value, matching what a command line would
/// have carried ("accesses":500 and "accesses":"500" are the same knob).
std::optional<std::string> scalar_to_string(const json::Value& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return std::string(v.as_bool() ? "1" : "0");
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
    return std::string(buf);
  }
  return std::nullopt;
}

json::Value snapshot_to_json(const system::JobSnapshot& snap) {
  json::Object o{
      {"id", std::to_string(snap.id)},
      {"bench", snap.name},
      {"state", to_string(snap.state)},
      {"timeout_ms", static_cast<std::int64_t>(snap.timeout.count())},
      {"points_done", static_cast<std::int64_t>(snap.points_done)},
      {"points_total", static_cast<std::int64_t>(snap.points_total)},
  };
  if (snap.state == system::JobState::kDone) {
    o.emplace_back("text", snap.output.text);
    o.emplace_back("csv", snap.output.csv);
  }
  if (!snap.error.empty()) o.emplace_back("error", snap.error);
  return o;
}

/// Dispatch index of a routing-table entry (the handlers are BenchService
/// members, so the table stores WHICH handler, and route() does the call).
enum class Endpoint : std::uint8_t {
  kBenches,
  kHealthz,
  kMetrics,
  kJobs,
  kJobById,
};

/// One served endpoint: how to match the target, the bounded-cardinality
/// metrics label, which methods are allowed (order fixes the 405 text), and
/// the handler. route() and route_label() both walk this table, so an
/// endpoint cannot exist in the dispatcher without a metrics label or vice
/// versa.
struct RouteSpec {
  const char* pattern;  ///< exact target, or path prefix when prefix is set
  bool prefix;
  const char* label;  ///< metrics label ("/jobs/{id}", not one per job id)
  std::vector<std::string> methods;
  Endpoint endpoint;
};

const std::vector<RouteSpec>& routes() {
  // Order matters: exact "/jobs" precedes the "/jobs/" prefix entry.
  static const std::vector<RouteSpec> table = {
      {"/benches", false, "/benches", {"GET"}, Endpoint::kBenches},
      {"/healthz", false, "/healthz", {"GET"}, Endpoint::kHealthz},
      {"/metrics", false, "/metrics", {"GET"}, Endpoint::kMetrics},
      {"/jobs", false, "/jobs", {"POST"}, Endpoint::kJobs},
      {"/jobs/", true, "/jobs/{id}", {"GET", "DELETE"}, Endpoint::kJobById},
  };
  return table;
}

const RouteSpec* match_route(const std::string& target) {
  for (const RouteSpec& r : routes()) {
    const bool hit = r.prefix ? target.rfind(r.pattern, 0) == 0
                              : target == r.pattern;
    if (hit) return &r;
  }
  return nullptr;
}

/// "use GET", "use POST", "use GET or DELETE" — derived from the table so
/// the message can't contradict the check.
std::string allow_message(const RouteSpec& r) {
  std::string msg = "use ";
  for (std::size_t i = 0; i < r.methods.size(); ++i) {
    if (i != 0) msg += " or ";
    msg += r.methods[i];
  }
  return msg;
}

/// Bounded-cardinality route label for the HTTP metrics: concrete job ids
/// must not mint one time series each.
const char* route_label(const std::string& target) {
  const RouteSpec* r = match_route(target);
  return r != nullptr ? r->label : "other";
}

system::JobManager::Options bind_registry(system::JobManager::Options o,
                                          obs::MetricsRegistry* reg) {
  o.metrics = reg;  // the service's registry IS the process registry
  return o;
}

}  // namespace

BenchService::BenchService(std::vector<ServiceBench> benches,
                           const system::JobManager::Options& options,
                           json::Value knob_metadata)
    : benches_(std::move(benches)),
      knob_metadata_(std::move(knob_metadata)),
      http_requests_(&registry_.counter_family(
          "hmcc_http_requests_total",
          "HTTP requests handled, by route and status code")),
      http_latency_(&registry_.histogram(
          "hmcc_http_request_duration_seconds",
          {0.001, 0.01, 0.1, 1.0, 10.0}, "Request handling latency")),
      jobs_(bind_registry(options, &registry_)) {}

HttpResponse BenchService::handle(const HttpRequest& req) {
  const auto start = std::chrono::steady_clock::now();
  HttpResponse resp = route(req);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  // Instrumentation after the fact: a /metrics scrape shows up in the
  // counters from the NEXT scrape onward.
  http_requests_
      ->with({{"code", std::to_string(resp.status)},
              {"path", route_label(req.target)}})
      .inc();
  http_latency_->observe(elapsed.count());
  return resp;
}

HttpResponse BenchService::route(const HttpRequest& req) {
  try {
    const RouteSpec* spec = match_route(req.target);
    if (spec == nullptr) return error_json(404, "no such endpoint");

    // A "/jobs/<garbage>" target matched the prefix for labeling purposes
    // but is not a real endpoint: 404 before any method check.
    std::optional<std::uint64_t> id;
    if (spec->endpoint == Endpoint::kJobById) {
      id = parse_job_id(req.target, spec->pattern);
      if (!id) return error_json(404, "no such endpoint");
    }

    if (std::find(spec->methods.begin(), spec->methods.end(), req.method) ==
        spec->methods.end()) {
      return error_json(405, allow_message(*spec));
    }

    switch (spec->endpoint) {
      case Endpoint::kBenches: return list_benches();
      case Endpoint::kHealthz: return healthz();
      case Endpoint::kMetrics: return metrics_exposition();
      case Endpoint::kJobs: return submit_job(req);
      case Endpoint::kJobById:
        return req.method == "GET" ? job_status(*id) : cancel_job(*id);
    }
    return error_json(404, "no such endpoint");  // unreachable
  } catch (const std::exception& e) {
    return error_json(500, e.what());
  } catch (...) {
    return error_json(500, "unhandled exception");
  }
}

HttpResponse BenchService::list_benches() const {
  json::Array entries;
  entries.reserve(benches_.size());
  for (const ServiceBench& b : benches_) entries.push_back(b.metadata);
  return json_response(200, json::Object{
                                {"benches", std::move(entries)},
                                {"knobs", knob_metadata_},
                            });
}

HttpResponse BenchService::submit_job(const HttpRequest& req) {
  if (draining_.load(std::memory_order_relaxed)) {
    return error_json(503, "draining: not accepting new jobs");
  }
  std::string parse_error;
  const auto doc = json::parse(req.body, &parse_error);
  if (!doc || !doc->is_object()) {
    return error_json(400, "body must be a JSON object" +
                               (parse_error.empty() ? std::string()
                                                    : ": " + parse_error));
  }
  const json::Value* bench_name = doc->find("bench");
  if (bench_name == nullptr || !bench_name->is_string()) {
    return error_json(400, "missing string field 'bench'");
  }
  const ServiceBench* bench = nullptr;
  for (const ServiceBench& b : benches_) {
    if (b.name == bench_name->as_string()) {
      bench = &b;
      break;
    }
  }
  if (bench == nullptr) {
    return error_json(404,
                      "unknown bench '" + bench_name->as_string() + "'");
  }

  Config overrides;
  if (const json::Value* config = doc->find("config")) {
    if (!config->is_object()) {
      return error_json(400, "'config' must be an object of knob values");
    }
    for (const auto& [key, value] : config->as_object()) {
      const auto s = scalar_to_string(value);
      if (!s) {
        return error_json(400, "knob '" + key + "' must be a scalar");
      }
      overrides.set(key, *s);
    }
  }

  std::optional<std::chrono::milliseconds> timeout;
  if (const json::Value* t = doc->find("timeout_ms")) {
    if (!t->is_number() || t->as_int() < 0) {
      return error_json(400, "'timeout_ms' must be a non-negative number");
    }
    timeout = std::chrono::milliseconds(t->as_int());
  }

  const auto id = jobs_.submit(
      bench->name,
      [run = bench->run, overrides](const system::JobContext& ctx) {
        return run(overrides, ctx);
      },
      timeout);
  if (!id) {
    return error_json(429, "admission queue full, retry later");
  }
  return json_response(202, json::Object{
                                {"id", std::to_string(*id)},
                                {"bench", bench->name},
                                {"state", "queued"},
                            });
}

HttpResponse BenchService::job_status(std::uint64_t id) const {
  const auto snap = jobs_.status(id);
  if (!snap) {
    if (jobs_.evicted(id)) {
      return json_response(
          404, json::Object{
                   {"error", "evicted"},
                   {"detail", "job record dropped from the bounded history"},
               });
    }
    return error_json(404, "no such job");
  }
  return json_response(200, snapshot_to_json(*snap));
}

HttpResponse BenchService::cancel_job(std::uint64_t id) {
  const auto snap = jobs_.status(id);
  if (!snap) {
    if (jobs_.evicted(id)) return error_json(404, "evicted");
    return error_json(404, "no such job");
  }
  if (!jobs_.cancel(id)) {
    return error_json(409, std::string("job already ") +
                               to_string(snap->state));
  }
  return json_response(200, json::Object{
                                {"id", std::to_string(id)},
                                {"cancelling", true},
                            });
}

HttpResponse BenchService::healthz() const {
  const auto occ = jobs_.occupancy();
  json::Value http = json::Object{};
  if (connection_stats_) {
    const HttpServer::Stats cs = connection_stats_();
    http = json::Object{
        {"connections_open", static_cast<std::int64_t>(cs.connections_open)},
        {"connections_accepted",
         static_cast<std::int64_t>(cs.connections_accepted)},
        {"requests_served", static_cast<std::int64_t>(cs.requests_served)},
        {"keepalive_reuses", static_cast<std::int64_t>(cs.keepalive_reuses)},
    };
  }
  return json_response(
      200,
      json::Object{
          {"status", draining() ? "draining" : "ok"},
          {"http", std::move(http)},
          {"benches", static_cast<std::int64_t>(benches_.size())},
          {"jobs",
           json::Object{
               {"queued", static_cast<std::int64_t>(occ.queued)},
               {"running", static_cast<std::int64_t>(occ.running)},
               {"finished", static_cast<std::int64_t>(occ.finished)},
               {"admission_bound",
                static_cast<std::int64_t>(occ.max_queued_jobs)},
           }},
          {"pool",
           json::Object{
               {"job_workers", static_cast<std::int64_t>(occ.job_workers)},
               {"sweep_threads",
                static_cast<std::int64_t>(occ.sweep_threads)},
               {"sweep_active", static_cast<std::int64_t>(occ.sweep_active)},
               {"sweep_queued", static_cast<std::int64_t>(occ.sweep_queued)},
           }},
      });
}

HttpResponse BenchService::metrics_exposition() {
  // Gauges are sampled at scrape time; counters accumulate as events happen.
  const auto occ = jobs_.occupancy();
  registry_.gauge("hmcc_jobs_queued", "Jobs admitted, not yet started")
      .set(static_cast<double>(occ.queued));
  registry_.gauge("hmcc_jobs_running", "Jobs executing now")
      .set(static_cast<double>(occ.running));
  registry_.gauge("hmcc_jobs_finished", "Jobs in a terminal state, retained")
      .set(static_cast<double>(occ.finished));
  registry_
      .gauge("hmcc_pool_job_workers", "Dispatch threads orchestrating jobs")
      .set(static_cast<double>(occ.job_workers));
  registry_
      .gauge("hmcc_pool_admission_bound", "Admission queue capacity")
      .set(static_cast<double>(occ.max_queued_jobs));
  registry_.gauge("hmcc_pool_sweep_threads", "Sweep worker threads")
      .set(static_cast<double>(occ.sweep_threads));
  registry_.gauge("hmcc_pool_sweep_active", "Sweep tasks executing now")
      .set(static_cast<double>(occ.sweep_active));
  registry_
      .gauge("hmcc_pool_sweep_queued", "Sweep tasks waiting for a worker")
      .set(static_cast<double>(occ.sweep_queued));
  if (connection_stats_) {
    const HttpServer::Stats cs = connection_stats_();
    registry_
        .gauge("hmcc_http_connections_open",
               "TCP connections the server holds open now")
        .set(static_cast<double>(cs.connections_open));
    registry_
        .gauge("hmcc_http_connections_accepted",
               "TCP connections accepted since startup")
        .set(static_cast<double>(cs.connections_accepted));
    registry_
        .gauge("hmcc_http_keepalive_reuses",
               "Requests served on an already-used keep-alive connection")
        .set(static_cast<double>(cs.keepalive_reuses));
  }

  HttpResponse resp;
  resp.status = 200;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = registry_.render_prometheus();
  return resp;
}

}  // namespace hmcc::service
