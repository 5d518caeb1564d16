#include "liberty/lut.hpp"

#include <algorithm>
#include <functional>

#include "util/error.hpp"

namespace limsynth::liberty {

Lut2D::Lut2D(std::vector<double> slew_axis, std::vector<double> load_axis,
             std::vector<double> values)
    : slew_axis_(std::move(slew_axis)),
      load_axis_(std::move(load_axis)),
      values_(std::move(values)) {
  LIMS_CHECK(slew_axis_.size() >= 2 && load_axis_.size() >= 2);
  LIMS_CHECK(values_.size() == slew_axis_.size() * load_axis_.size());
  // Strictly increasing: a repeated point would make lookup() divide by a
  // zero-width cell.
  LIMS_CHECK(std::adjacent_find(slew_axis_.begin(), slew_axis_.end(),
                                std::greater_equal<>()) == slew_axis_.end());
  LIMS_CHECK(std::adjacent_find(load_axis_.begin(), load_axis_.end(),
                                std::greater_equal<>()) == load_axis_.end());
}

std::size_t Lut2D::cell(const std::vector<double>& axis, double x) {
  // lower_bound gives first element >= x.
  const auto it = std::lower_bound(axis.begin(), axis.end(), x);
  std::size_t i = (it == axis.begin())
                      ? 0
                      : static_cast<std::size_t>(it - axis.begin()) - 1;
  return std::min(i, axis.size() - 2);
}

double Lut2D::lookup(double slew, double load) const {
  LIMS_CHECK(!empty());
  const std::size_t si = cell(slew_axis_, slew);
  const std::size_t li = cell(load_axis_, load);
  const double s0 = slew_axis_[si], s1 = slew_axis_[si + 1];
  const double l0 = load_axis_[li], l1 = load_axis_[li + 1];
  const double fs = (slew - s0) / (s1 - s0);  // may be <0 or >1: extrapolates
  const double fl = (load - l0) / (l1 - l0);
  const double v00 = at(si, li), v01 = at(si, li + 1);
  const double v10 = at(si + 1, li), v11 = at(si + 1, li + 1);
  const double lo = v00 + (v01 - v00) * fl;
  const double hi = v10 + (v11 - v10) * fl;
  return lo + (hi - lo) * fs;
}

}  // namespace limsynth::liberty
