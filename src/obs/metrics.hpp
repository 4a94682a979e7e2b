// Observability metrics: a thread-safe registry of counters, gauges and
// fixed-bucket histograms with Prometheus text exposition.
//
// Design constraints, in priority order:
//  * dependency-free — standard library only, so every layer (coalescer,
//    HMC, cache, system) can link it without pulling anything else in;
//  * lock-free fast path — increments/observations are relaxed atomics;
//    the registry mutex is taken only to REGISTER a metric or materialize
//    a labeled child, and callers are expected to cache the returned
//    reference (references are stable for the registry's lifetime);
//  * deterministic output — families render sorted by metric name and
//    children sorted by label values, so two snapshots of the same state
//    are byte-identical (testable, diffable, CI-artifact friendly).
//
// Two registries exist in practice and never mix:
//  * a per-System registry (simulation counters: coalescing rate, packet
//    mix, bank traffic) that benches snapshot after a run;
//  * bench_suite's registry (per-bench wall time and task counts), which
//    `bench_suite --metrics PATH` writes once the suite ends.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace hmcc::obs {

/// Label key/value pairs identifying one series inside a family. Callers
/// must spell a given child's labels in the same pair order everywhere:
/// {{"a","1"},{"b","2"}} and {{"b","2"},{"a","1"}} are distinct children.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer metric.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous value; set() and add() are both thread-safe.
class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void add(double d) noexcept {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t next =
          std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + d);
      if (bits_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        return;
      }
    }
  }
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed-bucket histogram. Bucket boundaries are upper bounds (Prometheus
/// `le` semantics) fixed at registration; per-bucket counts are stored
/// non-cumulative and accumulated only at render time, so observe() touches
/// exactly one bucket counter plus sum/count.
class Histogram {
 public:
  /// @p upper_bounds must be strictly increasing; an implicit +Inf bucket
  /// is always appended.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept { observe_many(v, 1); }

  /// Record @p n identical observations of @p v (publishing pre-aggregated
  /// sim counts, e.g. "size_128 packets: 1234").
  void observe_many(double v, std::uint64_t n) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Non-cumulative count of bucket @p i (i == bounds().size() is +Inf).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
};

class MetricsRegistry;

/// A named set of series sharing one metric name and type, keyed by label
/// values. with() materializes (or finds) a child; the returned reference
/// is stable for the registry's lifetime — cache it on hot paths.
template <typename T>
class Family {
 public:
  T& with(const Labels& labels) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = children_.find(labels);
    if (it == children_.end()) {
      it = children_.emplace(labels, make_child()).first;
    }
    return *it->second;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& help() const noexcept { return help_; }

 private:
  friend class MetricsRegistry;
  Family(std::string name, std::string help, std::vector<double> bounds = {})
      : name_(std::move(name)), help_(std::move(help)),
        bounds_(std::move(bounds)) {}

  std::unique_ptr<T> make_child() const {
    if constexpr (std::is_same_v<T, Histogram>) {
      return std::make_unique<Histogram>(bounds_);
    } else {
      return std::make_unique<T>();
    }
  }

  /// Children sorted by label values: deterministic exposition order.
  using Children = std::map<Labels, std::unique_ptr<T>>;
  [[nodiscard]] const Children& children() const noexcept { return children_; }

  std::string name_;
  std::string help_;
  std::vector<double> bounds_;  ///< histogram families only
  mutable std::mutex mu_;
  Children children_;
};

/// Thread-safe metric registry + Prometheus text renderer.
///
/// Registration is idempotent: re-requesting an existing name returns the
/// same family (the first registration's help text wins); re-requesting it
/// as a different TYPE throws std::logic_error — silently aliasing a
/// counter and a histogram under one name is always a bug.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Unlabeled convenience accessors: the family's single {} child.
  Counter& counter(const std::string& name, const std::string& help = "") {
    return counter_family(name, help).with({});
  }
  Gauge& gauge(const std::string& name, const std::string& help = "") {
    return gauge_family(name, help).with({});
  }
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "") {
    return histogram_family(name, std::move(bounds), help).with({});
  }

  Family<Counter>& counter_family(const std::string& name,
                                  const std::string& help = "");
  Family<Gauge>& gauge_family(const std::string& name,
                              const std::string& help = "");
  /// @p bounds applies to every child; ignored if @p name already exists.
  Family<Histogram>& histogram_family(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help = "");

  /// Snapshot helpers for tests/benches (0 / empty when absent).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            const Labels& labels = {}) const;

  /// Full Prometheus text exposition (content type
  /// "text/plain; version=0.0.4"). Families sorted by name, children by
  /// label values: byte-identical output for identical state.
  [[nodiscard]] std::string render_prometheus() const;

 private:
  using Entry = std::variant<std::unique_ptr<Family<Counter>>,
                             std::unique_ptr<Family<Gauge>>,
                             std::unique_ptr<Family<Histogram>>>;

  template <typename T>
  Family<T>& family(const std::string& name, const std::string& help,
                    std::vector<double> bounds = {});

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Escape a label value per the Prometheus exposition format: backslash,
/// double quote and newline become \\, \" and \n.
[[nodiscard]] std::string escape_label_value(const std::string& v);

/// Render a double the way the exposition format expects: shortest
/// round-trip representation, integral values without an exponent.
[[nodiscard]] std::string format_double(double v);

}  // namespace hmcc::obs
