// Brick performance-estimation tool (paper §3).
//
// Produces the delay/energy/area numbers of a compiled brick analytically —
// logical-effort stage delays plus Elmore RC for the distributed wires —
// in microseconds of CPU time, which is what makes the paper's
// "design-space exploration within seconds" possible. Table 1 of the paper
// validates exactly this estimator against SPICE; `limsynth repro`'s
// table1 artifact reproduces that comparison against our golden transient
// simulator (brick/golden.hpp).
#pragma once

#include "brick/brick.hpp"

namespace limsynth::brick {

/// Complete analytic characterization of one brick in a bank of
/// `spec.stack` stacked bricks.
struct BrickEstimate {
  // Read critical path breakdown (seconds).
  double t_control = 0.0;   // clk -> wl_en valid at the row NANDs
  double t_wordline = 0.0;  // NAND + driver + WL wire to the far cell
  double t_bitline = 0.0;   // cell discharging the local RBL to sense trip
  double t_sense = 0.0;     // local sense driving the stacked ARBL
  double t_output = 0.0;    // bank output buffer into the reference load
  double read_delay = 0.0;  // sum of the above

  double write_delay = 0.0;
  double match_delay = 0.0;  // CAM only; 0 otherwise

  // Energies per operation (J). Read/write use the paper's alternating
  // <1010...> data pattern (half the bits switch).
  double read_energy = 0.0;
  double write_energy = 0.0;
  double match_energy = 0.0;  // CAM only
  double energy_per_extra_brick = 0.0;  // stacking increment (diagnostic)

  // Macro-model parameters for the generated library.
  double setup = 0.0;   // DWL/data before clk edge
  double hold = 0.0;
  double min_cycle = 0.0;
  double leakage = 0.0;               // W for the whole bank
  double clock_energy_idle = 0.0;     // J per idle brick per clock
  double input_cap_clk = 0.0;         // F
  double input_cap_dwl = 0.0;         // F per decoded wordline pin
  double input_cap_data = 0.0;        // F per write-data pin

  // eDRAM only: gain-cell retention and the refresh tax.
  double retention_time = 0.0;  // s; 0 for static cells
  double refresh_power = 0.0;   // W to rewrite every row within retention

  // Geometry for the whole bank (stack bricks).
  double bank_area = 0.0;    // m^2
  double bank_width = 0.0;   // m
  double bank_height = 0.0;  // m
};

/// Reference output load the read path is characterized into by default.
inline constexpr double kReferenceLoad = 5e-15;  // F

/// Runs the estimator. `output_load` is the external load on each data
/// output pin.
BrickEstimate estimate_brick(const Brick& brick,
                             double output_load = kReferenceLoad);

}  // namespace limsynth::brick
