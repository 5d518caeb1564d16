#include "circuit/logical_effort.hpp"

#include <cmath>

#include "util/error.hpp"

namespace limsynth::circuit {

SizedPath size_path(const std::vector<PathStage>& path, double cin_c0,
                    double load_c0) {
  LIMS_CHECK(!path.empty());
  LIMS_CHECK(cin_c0 > 0.0 && load_c0 > 0.0);

  double G = 1.0, B = 1.0, P = 0.0;
  for (const auto& s : path) {
    LIMS_CHECK(s.logical_effort > 0.0 && s.branching >= 1.0);
    G *= s.logical_effort;
    B *= s.branching;
    P += s.parasitic;
  }
  const double H = load_c0 / cin_c0;
  const auto N = static_cast<double>(path.size());
  const double F = G * B * H;
  const double f = std::pow(F, 1.0 / N);

  SizedPath out;
  out.stage_effort = f;
  out.delay_tau = N * f + P;
  out.stage_cin.resize(path.size());
  // Size backwards: cin_i = g_i * b_i * cout_i / f, where cout of the last
  // stage is the load.
  double cout = load_c0;
  for (std::size_t i = path.size(); i-- > 0;) {
    const double cin = path[i].logical_effort * path[i].branching * cout / f;
    out.stage_cin[i] = cin;
    cout = cin;
  }
  return out;
}

}  // namespace limsynth::circuit
