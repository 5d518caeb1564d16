// Logical-effort path optimization (Sutherland/Sproull/Harris [9] in the
// paper). Used by the brick compiler to size wordline drivers, sense
// buffers, and control chains, and by the synthesis gate sizer.
#pragma once

#include <vector>

namespace limsynth::circuit {

/// One stage on a path: its logical effort and branching factor (how much
/// of the stage's drive goes off-path).
struct PathStage {
  double logical_effort = 1.0;  // g
  double branching = 1.0;       // b >= 1
  double parasitic = 1.0;       // p (tau units)
};

struct SizedPath {
  /// Input capacitance of each stage, in unit-inverter input caps (C0).
  std::vector<double> stage_cin;
  /// Total path delay in tau units (sum of g*h + p).
  double delay_tau = 0.0;
  /// Per-stage effort f = g*h actually achieved.
  double stage_effort = 0.0;
};

/// Sizes the stages of `path` to drive `load_c0` (in C0 units) from a fixed
/// input capacitance `cin_c0`, minimizing delay: classic equal-stage-effort
/// solution f = (G*B*H)^(1/N).
SizedPath size_path(const std::vector<PathStage>& path, double cin_c0,
                    double load_c0);

}  // namespace limsynth::circuit
