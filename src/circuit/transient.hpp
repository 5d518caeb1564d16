// Golden transient simulator (the reproduction's "SPICE").
//
// Semi-implicit backward-Euler nodal analysis: linear elements (R, C) are
// implicit; MOS conductances are evaluated at the previous step's voltages.
// With the small fixed timestep used here (tau/40 by default) this is stable
// and accurate to well under a percent on the RC-dominated circuits that
// bricks produce — more than enough fidelity gap over the analytic
// estimator to play the reference role SPICE plays in the paper.
//
// Each step solves the nodal system with a sparse LU in natural node order.
// Its pattern and fill are built once per dt attempt. Its values are
// refactored only on steps where some device's switch fraction changed;
// every other step is one forward and one back substitution. The matrix is
// strictly diagonally dominant, so the factorization never pivots, and it
// keeps a fixed operation order, so every result is bit-identical to a
// dense partial-pivot LU of the same matrix (rules in transient.cpp).
#pragma once

#include <vector>

#include "circuit/circuit.hpp"

namespace limsynth::circuit {

struct TransientConfig {
  double t_stop = 3e-9;   // s
  double dt = 0.0;        // s; 0 = auto (process tau / 40)
  bool record_waveforms = true;
  int waveform_stride = 4;  // record every Nth step
  /// Duration simulated before t=0 with all sources pinned at their t=0
  /// values, to establish the DC operating point. Not recorded; energy
  /// drawn during settling is not counted.
  double dc_settle = 1e-9;

  /// Numerical-fault recovery: when a step produces a non-finite node
  /// voltage the attempt is abandoned and rerun with dt halved, up to this
  /// many retries; exhaustion raises Error(kNumericalFault) instead of
  /// silently propagating NaNs into delay/energy measurements.
  int max_dt_retries = 3;
  // Each attempt (settling + main phase) may take at most 20M steps: a
  // dt/t_stop pair that would exceed it raises Error(kResourceExhausted)
  // up front rather than stalling the caller.
};

class TransientResult {
 public:
  TransientResult(std::vector<double> times,
                  std::vector<std::vector<double>> waves,
                  double energy_from_vdd, double vdd);

  /// First time the node crosses `frac * vdd` in the given direction at or
  /// after `after`. Returns a negative value when it never crosses.
  double cross_time(NodeId node, double frac, bool rising,
                    double after = 0.0) const;

  /// Voltage of `node` at time `t` (linear interpolation).
  double voltage_at(NodeId node, double t) const;

  /// Total energy delivered by the vdd rail over the simulation.
  double energy() const { return energy_; }

  double final_voltage(NodeId node) const;

 private:
  std::vector<double> times_;
  std::vector<std::vector<double>> waves_;  // [node][sample]
  double energy_ = 0.0;
  double vdd_ = 1.0;
};

/// Runs the transient simulation. Validates the config up front
/// (kInvalidConfig on inconsistent dt/t_stop/dc_settle), guards the step
/// count (kResourceExhausted), and detects non-finite node voltages,
/// retrying with halved dt before raising kNumericalFault. Throws
/// kNumericalFault when the conductance matrix is singular (a node with no
/// DC path and no capacitance).
TransientResult simulate(const Circuit& circuit, const TransientConfig& config);

/// Delay measured from `in` crossing 50% to `out` crossing 50%, with given
/// edge directions. Negative when either never crosses.
double measure_delay(const TransientResult& result, const Circuit& circuit,
                     NodeId in, bool in_rising, NodeId out, bool out_rising,
                     double after = 0.0);

}  // namespace limsynth::circuit
