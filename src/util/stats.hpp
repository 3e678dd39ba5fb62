// Lightweight descriptive statistics used by the metric collectors and the
// benchmark harnesses (online accumulators, fixed-bin histograms).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace snnmap::util {

/// Online accumulator for mean/variance/min/max (Welford's algorithm).
/// Numerically stable for long runs.
class Accumulator {
 public:
  /// Inline: called once per delivered packet copy in the NoC cycle loop.
  void add(double x) noexcept {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double sum() const noexcept { return sum_; }
  /// Mean of the observations; 0 when empty.
  double mean() const noexcept;
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi); values outside are clamped into the
/// first/last bin so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const;

  /// Multi-line ASCII rendering for logs/reports.
  std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace snnmap::util
