// Declarative component descriptors: one schema, three consumers.
//
// Every simulated component used to be instrumented three times in
// parallel — a stats struct, a hand-copied publish_metrics() overload, and
// a hand-maintained CLI knob list — and each new counter or knob meant
// touching every copy. This header replaces the copies with declarations:
//
//  * StatDescriptor / StatSet — a component declares each statistic ONCE
//    (name, kind, labels, a sample function reading live state). The system
//    layer publishes end-of-run values into an obs::MetricsRegistry, and
//    periodically samples the gauges flagged `sampled` mid-run (the
//    obs.sample_interval knob) — a new gauge is one declaration, not a
//    per-component project.
//
//  * Knob<Target> / KnobMeta — a config knob declares its key, type,
//    default, bounds, help, and how to apply/read a CLI string. overlay()
//    is the one loop that applies a table (with per-knob validation
//    errors); Args, the command line every binary reads, applies the
//    platform and workload tables through it and rejects any key no table
//    or program read declares. The parser and the metadata can never
//    drift: there is only one table per target.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "obs/metrics.hpp"

namespace hmcc::desc {

// ---------------------------------------------------------------------------
// Stat descriptors
// ---------------------------------------------------------------------------

enum class StatKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Pre-aggregated histogram content: (value, count) pairs, e.g.
/// {(64, n64), (128, n128), (256, n256)} for the packet-size figure.
using HistSample = std::vector<std::pair<double, std::uint64_t>>;

/// One metric series, declared by the component that owns the state. The
/// sample functions read LIVE component state, so the same descriptor
/// serves both end-of-run publication and mid-run sampling; the component
/// must outlive the StatSet holding its descriptors.
struct StatDescriptor {
  std::string name;  ///< Prometheus family name (hmcc_*)
  std::string help;
  StatKind kind = StatKind::kCounter;
  obs::Labels labels;          ///< child labels ({} = the unlabeled child)
  std::vector<double> bounds;  ///< histogram bucket upper bounds; for a
                               ///< `sampled` gauge, the bucket bounds of its
                               ///< `<name>_samples` mid-run histogram
  std::function<std::uint64_t()> counter_fn;  ///< kCounter
  std::function<double()> gauge_fn;           ///< kGauge
  std::function<HistSample()> hist_fn;        ///< kHistogram
  /// Gauges only: eligible for periodic mid-run sampling. Each sample sets
  /// the gauge and observes the value into a `<name>_samples` histogram, so
  /// the registry keeps the occupancy DISTRIBUTION, not just the last value.
  bool sampled = false;
};

/// An ordered collection of stat descriptors. Components return one from
/// stat_descriptors(); the owner (System) concatenates them and drives the
/// two consumers below.
class StatSet {
 public:
  StatSet& counter(std::string name, std::string help,
                   std::function<std::uint64_t()> fn, obs::Labels labels = {});
  StatSet& gauge(std::string name, std::string help,
                 std::function<double()> fn, obs::Labels labels = {});
  /// A gauge that additionally participates in mid-run sampling;
  /// @p sample_bounds buckets its `<name>_samples` histogram.
  StatSet& sampled_gauge(std::string name, std::string help,
                         std::vector<double> sample_bounds,
                         std::function<double()> fn, obs::Labels labels = {});
  StatSet& histogram(std::string name, std::string help,
                     std::vector<double> bounds, std::function<HistSample()> fn,
                     obs::Labels labels = {});

  /// Append every descriptor of @p other (component sets into the system
  /// set).
  StatSet& extend(StatSet other);

  [[nodiscard]] const std::vector<StatDescriptor>& entries() const noexcept {
    return entries_;
  }

  /// Publish every descriptor's CURRENT value into @p reg (the end-of-run
  /// consumer). Counters inc() by the sampled value — identical to set for
  /// the fresh per-run registry this feeds.
  void publish(obs::MetricsRegistry& reg) const;

  /// Sample every `sampled` gauge into @p reg: set the gauge to the current
  /// value and observe it into the `<name>_samples` histogram. Returns the
  /// number of gauges sampled.
  std::size_t sample(obs::MetricsRegistry& reg) const;

 private:
  std::vector<StatDescriptor> entries_;
};

// ---------------------------------------------------------------------------
// Knob descriptors
// ---------------------------------------------------------------------------

enum class KnobKind : std::uint8_t { kUInt, kBool, kEnum, kString };

/// Target-independent knob metadata: everything needed to build a valid
/// assignment without reading header comments (kind, bounds, choices).
struct KnobMeta {
  std::string key;    ///< the key= spelling, e.g. "vaults"
  std::string scope;  ///< "workload" (WorkloadParams) or "platform"
                      ///< (SystemConfig)
  std::string help;   ///< one-line description
  KnobKind kind = KnobKind::kUInt;
  std::string default_value;        ///< canonical CLI spelling of the default
  std::uint64_t min_value = 0;      ///< kUInt only
  std::uint64_t max_value = ~0ULL;  ///< kUInt only
  std::vector<std::string> choices;  ///< kEnum only
};

/// One config knob bound to a target struct: metadata plus how to apply a
/// raw CLI string (returning a validation error, or "" on success) and how
/// to read the current value back as the CLI string that reproduces it.
template <typename Target>
struct Knob {
  KnobMeta meta;
  std::function<std::string(Target&, const std::string& raw)> apply;
  std::function<std::string(const Target&)> read;
};

/// Strict scalar parsers backing the knob builders. Unlike Config's typed
/// getters (fallback on malformed input), these REPORT the problem so a
/// typo'd value fails the knob instead of silently running the default.
struct ParsedUInt {
  bool ok = false;
  std::uint64_t value = 0;
  std::string error;
};
[[nodiscard]] ParsedUInt parse_uint(const std::string& raw, std::uint64_t min,
                                    std::uint64_t max);

struct ParsedBool {
  bool ok = false;
  bool value = false;
  std::string error;
};
[[nodiscard]] ParsedBool parse_bool(const std::string& raw);

// --- Knob builders ---------------------------------------------------------

template <typename Target>
Knob<Target> uint_knob(std::string key, std::string scope, std::string help,
                       std::uint64_t min, std::uint64_t max,
                       std::function<std::uint64_t(const Target&)> get,
                       std::function<void(Target&, std::uint64_t)> set) {
  Knob<Target> k;
  k.meta.key = std::move(key);
  k.meta.scope = std::move(scope);
  k.meta.help = std::move(help);
  k.meta.kind = KnobKind::kUInt;
  k.meta.min_value = min;
  k.meta.max_value = max;
  k.apply = [set = std::move(set), min, max](Target& t,
                                             const std::string& raw) {
    const ParsedUInt p = parse_uint(raw, min, max);
    if (!p.ok) return p.error;
    set(t, p.value);
    return std::string();
  };
  k.read = [get = std::move(get)](const Target& t) {
    return std::to_string(get(t));
  };
  return k;
}

template <typename Target>
Knob<Target> bool_knob(std::string key, std::string scope, std::string help,
                       std::function<bool(const Target&)> get,
                       std::function<void(Target&, bool)> set) {
  Knob<Target> k;
  k.meta.key = std::move(key);
  k.meta.scope = std::move(scope);
  k.meta.help = std::move(help);
  k.meta.kind = KnobKind::kBool;
  k.apply = [set = std::move(set)](Target& t, const std::string& raw) {
    const ParsedBool p = parse_bool(raw);
    if (!p.ok) return p.error;
    set(t, p.value);
    return std::string();
  };
  k.read = [get = std::move(get)](const Target& t) {
    return std::string(get(t) ? "1" : "0");
  };
  return k;
}

template <typename Target>
Knob<Target> string_knob(std::string key, std::string scope, std::string help,
                         std::function<std::string(const Target&)> get,
                         std::function<void(Target&, std::string)> set) {
  Knob<Target> k;
  k.meta.key = std::move(key);
  k.meta.scope = std::move(scope);
  k.meta.help = std::move(help);
  k.meta.kind = KnobKind::kString;
  k.apply = [set = std::move(set)](Target& t, const std::string& raw) {
    set(t, raw);
    return std::string();
  };
  k.read = std::move(get);
  return k;
}

/// @p choices are the accepted spellings; @p set receives the raw (already
/// validated) choice.
template <typename Target>
Knob<Target> enum_knob(std::string key, std::string scope, std::string help,
                       std::vector<std::string> choices,
                       std::function<std::string(const Target&)> get,
                       std::function<void(Target&, const std::string&)> set) {
  Knob<Target> k;
  k.meta.key = std::move(key);
  k.meta.scope = std::move(scope);
  k.meta.help = std::move(help);
  k.meta.kind = KnobKind::kEnum;
  k.meta.choices = choices;
  k.apply = [set = std::move(set), choices = std::move(choices)](
                Target& t, const std::string& raw) {
    for (const std::string& c : choices) {
      if (raw == c) {
        set(t, raw);
        return std::string();
      }
    }
    std::string err = "'" + raw + "' is not one of ";
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i != 0) err += '|';
      err += choices[i];
    }
    return err;
  };
  k.read = std::move(get);
  return k;
}

/// Apply every knob of @p knobs that @p cli sets, in table order, appending
/// one "key: problem" line to @p errors per rejected value; valid knobs
/// still apply when others fail. The one loop that applies a knob table.
/// An empty enum value (mode=, pipeline=) keeps the current setting.
template <typename Target>
void overlay(const std::vector<Knob<Target>>& knobs, const Config& cli,
             Target& target, std::vector<std::string>& errors) {
  for (const Knob<Target>& k : knobs) {
    const auto it = cli.values().find(k.meta.key);
    if (it == cli.values().end()) continue;
    if (k.meta.kind == KnobKind::kEnum && it->second.empty()) continue;
    std::string err = k.apply(target, it->second);
    if (!err.empty()) errors.push_back(k.meta.key + ": " + std::move(err));
  }
}

// ---------------------------------------------------------------------------
// Cross-knob constraints
// ---------------------------------------------------------------------------

/// A structural invariant spanning several knobs (e.g. "window must not
/// exceed the CRQ capacity"). Per-knob validation lives in Knob::apply; these
/// run AFTER every knob has been applied, against the assembled config.
/// `check` returns the problem phrased WITHOUT the key ("" when satisfied);
/// the checker prefixes "key: " so every error in the collected list names
/// the knob(s) it belongs to, matching the per-knob error format.
template <typename Target>
struct Constraint {
  std::string key;  ///< the knob (or component) the error is filed under
  std::function<std::string(const Target&)> check;
};

/// Run every constraint against @p t, appending "key: problem" strings to
/// @p errors. Returns true when all constraints hold.
template <typename Target>
bool check_constraints(const std::vector<Constraint<Target>>& constraints,
                       const Target& t, std::vector<std::string>& errors) {
  const std::size_t before = errors.size();
  for (const Constraint<Target>& c : constraints) {
    std::string problem = c.check(t);
    if (!problem.empty()) errors.push_back(c.key + ": " + std::move(problem));
  }
  return errors.size() == before;
}

// ---------------------------------------------------------------------------
// Command lines
// ---------------------------------------------------------------------------

/// A program's key=value command line, read once. The constructor runs
/// Config::parse_args; each read below declares the key(s) it consumes.
/// finish() then rejects every key nothing declared and prints each problem
/// as "error: <key>: <problem>", so a token with no '=', an unknown key, a
/// rejected value and a broken constraint all end the same way: the
/// program exits 2 before it simulates anything.
class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] const Config& config() const noexcept { return cli_; }

  /// Declare @p knobs' keys, for a caller that applies the table itself
  /// (system::platform_from adds the platform's mode and constraints).
  template <typename Target>
  void declare(const std::vector<Knob<Target>>& knobs) {
    for (const Knob<Target>& k : knobs) declared_.push_back(k.meta.key);
  }

  /// overlay() @p knobs onto @p target and declare their keys.
  template <typename Target>
  void overlay(const std::vector<Knob<Target>>& knobs, Target& target) {
    declare(knobs);
    desc::overlay(knobs, cli_, target, errors_);
  }

  /// The program's own keys; @p fallback when absent.
  [[nodiscard]] std::string text(const std::string& key,
                                 const std::string& fallback);
  [[nodiscard]] std::uint64_t uint(const std::string& key,
                                   std::uint64_t fallback, std::uint64_t min,
                                   std::uint64_t max);
  [[nodiscard]] bool flag(const std::string& key, bool fallback);

  /// Record a problem the program found itself, phrased "key: problem".
  void fail(std::string problem) { errors_.push_back(std::move(problem)); }

  /// Reject every undeclared key, print every problem on stderr, and
  /// return true when there was none.
  [[nodiscard]] bool finish();

 private:
  Config cli_;
  std::vector<std::string> declared_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Bench metadata
// ---------------------------------------------------------------------------

/// Descriptive metadata for one registered benchmark — the same record backs
/// `bench_suite --list` and the heading `bench_suite only=<name>` prints, so
/// the two can never drift.
struct BenchMeta {
  std::string name;        ///< registry key, e.g. "fig08"
  std::string title;       ///< one-line human description
  std::string paper_note;  ///< which figure/table the bench reproduces
  std::uint64_t default_accesses = 0;  ///< workload size when accesses= absent
};

}  // namespace hmcc::desc
