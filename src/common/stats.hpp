// Streaming scalar statistics for simulator components. Exported metrics are
// published through desc::StatSet and obs::MetricsRegistry.
#pragma once

#include <algorithm>
#include <cstdint>

namespace hmcc {

/// Streaming mean/min/max/variance accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  Accumulator& operator+=(const Accumulator& o) noexcept {
    if (o.n_ == 0) return *this;
    if (n_ == 0) { *this = o; return *this; }
    const double total = static_cast<double>(n_ + o.n_);
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / total;
    mean_ = (mean_ * static_cast<double>(n_) +
             o.mean_ * static_cast<double>(o.n_)) / total;
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    return *this;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

}  // namespace hmcc
