#include "common/descriptor.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace hmcc::desc {

StatSet& StatSet::counter(std::string name, std::string help,
                          std::function<std::uint64_t()> fn,
                          obs::Labels labels) {
  StatDescriptor d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = StatKind::kCounter;
  d.labels = std::move(labels);
  d.counter_fn = std::move(fn);
  entries_.push_back(std::move(d));
  return *this;
}

StatSet& StatSet::gauge(std::string name, std::string help,
                        std::function<double()> fn, obs::Labels labels) {
  StatDescriptor d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = StatKind::kGauge;
  d.labels = std::move(labels);
  d.gauge_fn = std::move(fn);
  entries_.push_back(std::move(d));
  return *this;
}

StatSet& StatSet::sampled_gauge(std::string name, std::string help,
                                std::vector<double> sample_bounds,
                                std::function<double()> fn,
                                obs::Labels labels) {
  gauge(std::move(name), std::move(help), std::move(fn), std::move(labels));
  entries_.back().sampled = true;
  entries_.back().bounds = std::move(sample_bounds);
  return *this;
}

StatSet& StatSet::histogram(std::string name, std::string help,
                            std::vector<double> bounds,
                            std::function<HistSample()> fn,
                            obs::Labels labels) {
  StatDescriptor d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = StatKind::kHistogram;
  d.labels = std::move(labels);
  d.bounds = std::move(bounds);
  d.hist_fn = std::move(fn);
  entries_.push_back(std::move(d));
  return *this;
}

StatSet& StatSet::extend(StatSet other) {
  entries_.reserve(entries_.size() + other.entries_.size());
  for (StatDescriptor& d : other.entries_) entries_.push_back(std::move(d));
  return *this;
}

void StatSet::publish(obs::MetricsRegistry& reg) const {
  for (const StatDescriptor& d : entries_) {
    switch (d.kind) {
      case StatKind::kCounter: {
        obs::Counter& c =
            d.labels.empty()
                ? reg.counter(d.name, d.help)
                : reg.counter_family(d.name, d.help).with(d.labels);
        c.inc(d.counter_fn());
        break;
      }
      case StatKind::kGauge: {
        obs::Gauge& g = d.labels.empty()
                            ? reg.gauge(d.name, d.help)
                            : reg.gauge_family(d.name, d.help).with(d.labels);
        g.set(d.gauge_fn());
        break;
      }
      case StatKind::kHistogram: {
        obs::Histogram& h =
            d.labels.empty()
                ? reg.histogram(d.name, d.bounds, d.help)
                : reg.histogram_family(d.name, d.bounds, d.help)
                      .with(d.labels);
        for (const auto& [value, count] : d.hist_fn()) {
          h.observe_many(value, count);
        }
        break;
      }
    }
  }
}

std::size_t StatSet::sample(obs::MetricsRegistry& reg) const {
  std::size_t sampled = 0;
  for (const StatDescriptor& d : entries_) {
    if (d.kind != StatKind::kGauge || !d.sampled) continue;
    const double v = d.gauge_fn();
    if (d.labels.empty()) {
      reg.gauge(d.name, d.help).set(v);
      reg.histogram(d.name + "_samples", d.bounds,
                    "Mid-run samples of " + d.name)
          .observe(v);
    } else {
      reg.gauge_family(d.name, d.help).with(d.labels).set(v);
      reg.histogram_family(d.name + "_samples", d.bounds,
                           "Mid-run samples of " + d.name)
          .with(d.labels)
          .observe(v);
    }
    ++sampled;
  }
  return sampled;
}

ParsedUInt parse_uint(const std::string& raw, std::uint64_t min,
                      std::uint64_t max) {
  ParsedUInt out;
  if (raw.empty()) {
    out.error = "empty value (expected unsigned integer)";
    return out;
  }
  // strtoull happily wraps negative input; reject any leading sign or space
  // ourselves so "-1" fails instead of becoming 2^64-1.
  if (raw[0] == '-' || raw[0] == '+' || std::isspace(
          static_cast<unsigned char>(raw[0]))) {
    out.error = "'" + raw + "' is not an unsigned integer";
    return out;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    out.error = "'" + raw + "' is not an unsigned integer";
    return out;
  }
  if (errno == ERANGE) {
    out.error = "'" + raw + "' is out of range for a 64-bit unsigned integer";
    return out;
  }
  if (v < min || v > max) {
    out.error = "'" + raw + "' is outside [" + std::to_string(min) + ", " +
                std::to_string(max) + "]";
    return out;
  }
  out.ok = true;
  out.value = v;
  return out;
}

ParsedBool parse_bool(const std::string& raw) {
  ParsedBool out;
  if (raw == "1" || raw == "true" || raw == "yes" || raw == "on") {
    out.ok = true;
    out.value = true;
  } else if (raw == "0" || raw == "false" || raw == "no" || raw == "off") {
    out.ok = true;
    out.value = false;
  } else {
    out.error = "'" + raw + "' is not a boolean (use 1/true/yes/on or "
                "0/false/no/off)";
  }
  return out;
}

}  // namespace hmcc::desc
