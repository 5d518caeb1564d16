// Small statistics helpers used by Monte-Carlo corner analysis, the DSE
// engine, and benchmark reporting.
#pragma once

#include <cstddef>
#include <cstdint>

namespace limsynth {

/// Streaming mean / variance / extrema accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
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

/// Wilson score confidence interval for a binomial proportion — the
/// interval of choice for fault-injection campaigns because it stays
/// honest at rates near 0 and 1 where the normal approximation collapses.
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
  bool overlaps(const WilsonInterval& other) const {
    return lo <= other.hi && other.lo <= hi;
  }
};

/// `z` is the two-sided normal quantile (1.96 for 95% confidence).
/// Zero trials yield the vacuous [0, 1] interval.
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.96);

}  // namespace limsynth
