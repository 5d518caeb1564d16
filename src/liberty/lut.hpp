// NLDM-style 2D lookup tables (paper §3: "look-up table (LUT) models based
// on bilinear interpolation and curve fitting for delay and energy as a
// function of fanout and slew rate").
#pragma once

#include <vector>

namespace limsynth::liberty {

/// Table indexed by (input slew, output load); bilinear interpolation
/// inside the grid, linear extrapolation from the edge cells outside it.
class Lut2D {
 public:
  Lut2D() = default;
  Lut2D(std::vector<double> slew_axis, std::vector<double> load_axis,
        std::vector<double> values /* row-major [slew][load] */);

  double lookup(double slew, double load) const;

  bool empty() const { return values_.empty(); }
  const std::vector<double>& slew_axis() const { return slew_axis_; }
  const std::vector<double>& load_axis() const { return load_axis_; }
  const std::vector<double>& values() const { return values_; }

  double at(std::size_t si, std::size_t li) const {
    return values_[si * load_axis_.size() + li];
  }

  /// Builds a LUT by evaluating `fn(slew, load)` on the grid.
  template <typename Fn>
  static Lut2D from_function(std::vector<double> slew_axis,
                             std::vector<double> load_axis, Fn&& fn) {
    std::vector<double> values;
    values.reserve(slew_axis.size() * load_axis.size());
    for (double s : slew_axis)
      for (double l : load_axis) values.push_back(fn(s, l));
    return Lut2D(std::move(slew_axis), std::move(load_axis), std::move(values));
  }

 private:
  /// Finds the interpolation cell for `x` on `axis`: returns the lower
  /// index i with axis[i] <= x < axis[i+1], clamped to [0, n-2].
  static std::size_t cell(const std::vector<double>& axis, double x);

  std::vector<double> slew_axis_;
  std::vector<double> load_axis_;
  std::vector<double> values_;
};

}  // namespace limsynth::liberty
