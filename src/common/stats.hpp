// Streaming scalar statistics for simulator components. Exported metrics are
// published through desc::StatSet and obs::MetricsRegistry.
#pragma once

#include <algorithm>
#include <cstdint>

namespace hmcc {

/// Streaming count/mean/min/max accumulator (running mean, as in Welford's
/// algorithm).
class Accumulator {
 public:
  void add(double x) noexcept {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

}  // namespace hmcc
