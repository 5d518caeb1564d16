#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace limsynth {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  LIMS_CHECK_MSG(successes <= trials,
                 successes << " successes out of " << trials << " trials");
  LIMS_CHECK_MSG(z > 0.0, "non-positive z quantile " << z);
  if (trials == 0) return {};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double spread =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, (center - spread) / denom),
          std::min(1.0, (center + spread) / denom)};
}

}  // namespace limsynth
