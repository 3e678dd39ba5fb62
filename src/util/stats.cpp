#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace snnmap::util {

double Accumulator::mean() const noexcept { return n_ ? mean_ : 0.0; }

double Accumulator::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
}

void Histogram::add(double x) noexcept {
  const double t = (x - lo_) / (hi_ - lo_);
  const auto raw = static_cast<std::ptrdiff_t>(
      std::floor(t * static_cast<double>(counts_.size())));
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(counts_.size()) - 1;
  const std::ptrdiff_t idx = std::clamp<std::ptrdiff_t>(raw, 0, last);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar = counts_[i] * width / peak;
    out << '[' << bin_low(i) << ", " << bin_high(i) << ") "
        << std::string(bar, '#') << ' ' << counts_[i] << '\n';
  }
  return out.str();
}

}  // namespace snnmap::util
