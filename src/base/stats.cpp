#include "base/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace uwbams::base {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}


double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::variance_population() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void BerCounter::add(bool error) {
  ++bits_;
  if (error) ++errors_;
}

void BerCounter::add_bits(std::uint64_t bits, std::uint64_t errors) {
  bits_ += bits;
  errors_ += errors;
}

double BerCounter::ber() const {
  return bits_ > 0 ? static_cast<double>(errors_) / static_cast<double>(bits_)
                   : 0.0;
}

double BerCounter::half_width_95() const {
  if (bits_ == 0) return 1.0;
  const double z = 1.96;
  const double n = static_cast<double>(bits_);
  const double p = ber();
  const double denom = 1.0 + z * z / n;
  const double half = (z / denom) *
                      std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n));
  return half;
}

Interval wilson_interval_95(std::uint64_t successes, std::uint64_t trials) {
  if (trials == 0) return {0.0, 1.0};
  const double z = 1.96;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double denom = 1.0 + z * z / n;
  const double center = (p + z * z / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n));
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double ks_statistic(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

double ks_threshold(std::size_t n, std::size_t m, double alpha) {
  if (n == 0 || m == 0) return 0.0;
  const double c = std::sqrt(-std::log(alpha / 2.0) / 2.0);
  const double nn = static_cast<double>(n);
  const double mm = static_cast<double>(m);
  return c * std::sqrt((nn + mm) / (nn * mm));
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance_of(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double percentile_of(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile_of: empty input");
  std::sort(xs.begin(), xs.end());
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

QuantileSummary summarize_quantiles(std::vector<double> xs) {
  QuantileSummary q;
  q.count = xs.size();
  // Degenerate inputs get well-defined summaries instead of throwing (or,
  // before this guard existed, risking out-of-range interpolation indices):
  // an empty sample is the all-zero summary (count = 0 tells the consumer
  // apart from a genuine all-zero sample), and a single sample collapses
  // every quantile onto the one value.
  if (xs.empty()) return q;
  q.mean = mean_of(xs);
  if (xs.size() == 1) {
    q.min = q.max = q.p05 = q.p25 = q.p50 = q.p75 = q.p95 = xs.front();
    return q;
  }
  std::sort(xs.begin(), xs.end());
  q.min = xs.front();
  q.max = xs.back();
  // xs is already sorted; percentile_of sorts again, but these samples are
  // yield-report sized (hundreds), not waveform sized.
  q.p05 = percentile_of(xs, 5.0);
  q.p25 = percentile_of(xs, 25.0);
  q.p50 = percentile_of(xs, 50.0);
  q.p75 = percentile_of(xs, 75.0);
  q.p95 = percentile_of(xs, 95.0);
  return q;
}

LineFit fit_line(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2)
    throw std::invalid_argument("fit_line: need >= 2 equal-length samples");
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-300)
    throw std::invalid_argument("fit_line: degenerate x values");
  LineFit f;
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  return f;
}

}  // namespace uwbams::base
