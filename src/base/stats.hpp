// stats.hpp — streaming statistics and measurement helpers.
//
// RunningStats implements Welford's online algorithm so benches can
// accumulate millions of samples without storing them. BerCounter tracks
// bit errors together with a Wilson confidence interval so BER sweeps can
// stop early once the estimate is tight enough (or enough errors were seen).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace uwbams::base {

// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Unbiased sample variance (n-1 denominator).
  double variance() const;
  // Population variance (n denominator).
  double variance_population() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Bit-error-rate counter with early-stop support.
class BerCounter {
 public:
  void add(bool error);
  void add_bits(std::uint64_t bits, std::uint64_t errors);

  std::uint64_t bits() const { return bits_; }
  std::uint64_t errors() const { return errors_; }
  double ber() const;
  // Wilson score interval half-width at ~95% confidence.
  double half_width_95() const;
  // True once at least `min_errors` errors have been observed (Monte-Carlo
  // stopping rule: relative error of the BER estimate ~ 1/sqrt(errors)).
  bool converged(std::uint64_t min_errors) const { return errors_ >= min_errors; }

 private:
  std::uint64_t bits_ = 0;
  std::uint64_t errors_ = 0;
};

// Simple descriptive helpers over a span of samples.
double mean_of(std::span<const double> xs);
double variance_of(std::span<const double> xs);  // unbiased
// p in [0,100]; linear interpolation between order statistics.
double percentile_of(std::vector<double> xs, double p);

// Five-number-plus summary of a sample, built on percentile_of — the
// per-parameter record Monte-Carlo yield reports quote (min / p5 / p25 /
// median / p75 / p95 / max plus the mean). Degenerate inputs are
// well-defined: an empty sample returns the all-zero summary with
// count == 0, a single sample collapses every quantile onto that value.
struct QuantileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0, max = 0.0;
  double p05 = 0.0, p25 = 0.0, p50 = 0.0, p75 = 0.0, p95 = 0.0;
};
QuantileSummary summarize_quantiles(std::vector<double> xs);

// Least-squares line fit y = a + b*x; returns {a, b}.
struct LineFit {
  double intercept = 0.0;
  double slope = 0.0;
};
LineFit fit_line(std::span<const double> x, std::span<const double> y);

// Closed interval [lo, hi] on the real line.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool overlaps(const Interval& other) const {
    return lo <= other.hi && other.lo <= hi;
  }
};

// Wilson score interval at ~95% confidence for a binomial proportion with
// `successes` out of `trials`. The same interval BerCounter::half_width_95
// is centered on; exposed standalone so equivalence checks can compare two
// BER measurements by CI overlap. trials == 0 returns the vacuous [0, 1].
Interval wilson_interval_95(std::uint64_t successes, std::uint64_t trials);

// Two-sample Kolmogorov–Smirnov statistic: sup |F_a(x) - F_b(x)| over the
// empirical CDFs. Either sample empty returns 1.0 (maximally distinct).
double ks_statistic(std::vector<double> a, std::vector<double> b);

// Rejection threshold for the two-sample KS test at significance `alpha`
// (asymptotic form): c(alpha) * sqrt((n + m) / (n * m)) with
// c(alpha) = sqrt(-ln(alpha / 2) / 2). Samples are "statistically
// equivalent" at level alpha when ks_statistic <= ks_threshold.
double ks_threshold(std::size_t n, std::size_t m, double alpha);

}  // namespace uwbams::base
